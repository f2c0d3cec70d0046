package main

import (
	"fmt"
	"time"

	"gridcma/internal/config"
	"gridcma/internal/etc"
	"gridcma/internal/island/dist"
	"gridcma/internal/retry"
	"gridcma/internal/run"
	"gridcma/internal/transport"
)

// island-tcp sizes: the cmd/bench -islanddist cMA spec (3x3 mesh, two
// local search iterations) on 8 islands served by 2 workers, migrating
// every 2 iterations, on a 2048x64 instance per unit. islandRoundRate is
// migration rounds per second on the reference machine.
const (
	islandSpec      = "2048x64:c_hihi"
	islandIslands   = 8
	islandWorkers   = 2
	islandRounds    = 6
	islandRoundRate = 1.5
)

// islandRig is one instance served by islandWorkers dist.Workers, each on
// its own loopback TCP listener, and a coordinator dialed to them.
type islandRig struct {
	in    *etc.Instance
	coord *dist.Coordinator
	stops []func()
}

// newIslandRig generates the instance, serves the workers and builds the
// coordinator: the workload's set-up. Traced, each worker sits behind a
// timed handler and each connection is a timed client.
func newIslandRig(spec string, tr *tracer) (*islandRig, error) {
	g := &islandRig{}
	gs, err := etc.ParseGenSpec(spec)
	if err != nil {
		return nil, err
	}
	if g.in, err = gs.Generate(); err != nil {
		return nil, err
	}
	addrs := make([]string, islandWorkers)
	for i := range addrs {
		var h transport.Handler = dist.NewPinnedWorker(g.in)
		if tr != nil {
			h = timedHandler{h, tr, "dist.segment"}
		}
		addr, stop, err := serveTransport(h)
		if err != nil {
			g.close()
			return nil, err
		}
		addrs[i] = addr
		g.stops = append(g.stops, stop)
	}
	w, h, ls := 3, 3, 2
	cfg := dist.Config{
		Islands:        islandIslands,
		MigrationEvery: 2,
		Migrants:       2,
		Spec:           config.Spec{Width: &w, Height: &h, LSIterations: &ls},
		Workers:        islandWorkers,
		Instance:       spec,
		CallTimeout:    time.Minute,
		Retry:          retry.Policy{MaxAttempts: 12, Initial: time.Millisecond, Max: 8 * time.Millisecond},
		MaxRestarts:    2,
	}
	factory := func(w int) (transport.Client, error) {
		c, err := transport.Dial(addrs[w], 10*time.Second)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			return &timedClient{Client: c, tr: tr, name: "transport.call"}, nil
		}
		return c, nil
	}
	if g.coord, err = dist.New(cfg, factory); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *islandRig) close() {
	if g.coord != nil {
		g.coord.Close()
	}
	for _, stop := range g.stops {
		stop()
	}
}

// islandOut is what one island-tcp unit leaves for the metrics.
type islandOut struct {
	in     *etc.Instance
	rounds []time.Duration
	res    run.Result
	ratio  float64
	heap   float64
	wire   []time.Duration // traced: segment call minus the worker's handling
}

// islandUnit sets up unit k's rig and runs the coordinator for rounds
// migration rounds; sw times the run.
func islandUnit(rc *runCtx, k int, base string, rounds int, tr *tracer, sw *stopwatch) (islandOut, error) {
	var out islandOut
	mark := 0
	if tr != nil {
		mark = tr.mark()
	}
	spec := fmt.Sprintf("%s:s%d", base, unitSeed(rc.seed, k))
	heapBase := heapMiB()
	g, err := newIslandRig(spec, tr)
	if err != nil {
		return out, err
	}
	defer g.close()
	out.in = g.in

	sw.start()
	res, rep, err := g.coord.Run(g.in, run.Budget{MaxIterations: rounds * 2}, rc.seed)
	sw.stop()
	if err != nil {
		return out, err
	}
	out.res = res
	for _, ms := range rep.RoundMs {
		out.rounds = append(out.rounds, time.Duration(ms*float64(time.Millisecond)))
	}
	rc.ops(rep.Rounds*islandIslands, rep.Restarts+len(rep.Deaths))
	rc.check("no island lost", len(rep.Survivors) == islandIslands, "%s: %d of %d islands survived", spec, len(rep.Survivors), islandIslands)
	out.heap = heapMiB() - heapBase
	if tr != nil {
		out.wire = tr.pairs(mark, "transport.call", "dist.segment")
	}
	out.ratio = checkSolve(rc, spec, g.in, lowerBound(g.in), res)
	return out, nil
}

// runIsland runs the distributed island engine over TCP, one coordinator
// run of islandRounds rounds per unit, each unit on its own instance
// generated from the seed. A step is one migration round.
func runIsland(rc *runCtx) error {
	base, rounds := islandSpec, islandRounds
	units := rc.count(islandRoundRate/float64(rounds), 3)
	if rc.quick {
		base, rounds = "256x16:c_hihi", 2
	}
	var m measured
	for r := 0; r < setupRepeats; r++ {
		var g *islandRig
		d, err := timeSetup(func() (err error) {
			g, err = newIslandRig(fmt.Sprintf("%s:s%d", base, unitSeed(rc.seed, r)), nil)
			return err
		})
		if err != nil {
			return err
		}
		g.close()
		m.setups = append(m.setups, d)
	}
	phase := func(tr *tracer, sw *stopwatch) ([]islandOut, error) {
		outs := make([]islandOut, units)
		for k := range outs {
			o, err := islandUnit(rc, k, base, rounds, tr, sw)
			if err != nil {
				return nil, fmt.Errorf("unit %d: %w", k, err)
			}
			outs[k] = o
		}
		return outs, nil
	}
	plain, err := phase(nil, &m.sw)
	if err != nil {
		return err
	}
	var heaps []float64
	var evals int64
	for _, o := range plain {
		m.steps = append(m.steps, o.rounds...)
		m.ratios = append(m.ratios, o.ratio)
		heaps = append(heaps, o.heap)
		evals += o.res.Evals
	}
	m.heap = median(heaps)
	rc.putEndToEnd(&m)
	rc.put("evals_per_s", float64(evals)/m.sw.wall.Seconds())
	if !rc.trace {
		return nil
	}

	tr := rc.tr
	var tsw stopwatch
	traced, err := phase(tr, &tsw)
	if err != nil {
		return err
	}
	var wired time.Duration
	var wires int
	for k, o := range traced {
		rc.check("traced = untraced", sameResult(o.res, plain[k].res), "unit %d: traced makespan %v, untraced %v", k, o.res.Makespan, plain[k].res.Makespan)
		for _, d := range o.wire {
			wired += d
		}
		wires += len(o.wire)
	}
	seg, call := tr.sum("dist.segment"), tr.sum("transport.call")
	capacity := tsw.wall.Seconds() * islandWorkers
	rc.putOverhead(m.sw, tsw)
	rc.put("trace.layer_sum_frac", call.busy.Seconds()/capacity)
	rc.put("dist.segment.n", float64(seg.n))
	rc.put("dist.segment.mean_ms", seg.meanUs()/1e3)
	rc.put("dist.segment.busy_s", seg.busy.Seconds())
	rc.put("dist.busy_frac", seg.busy.Seconds()/capacity)
	rc.put("transport.call.mean_ms", call.meanUs()/1e3)
	rc.put("transport.wire.mean_ms", ratio(wired.Seconds()*1e3, float64(wires)))
	rc.put("transport.wire.share", ratio(wired.Seconds(), call.busy.Seconds()))
	return putKernels(rc, []*etc.Instance{traced[0].in})
}
