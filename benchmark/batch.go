package main

import (
	"fmt"
	"runtime"
	"time"

	"gridcma"
	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Sizes of the batch workloads. The rates are cMA iterations per second
// on the reference machine; a run's iteration budget follows from
// -seconds (see runCtx.count), so at the paper's 100 iterations per Braun
// instance a run measures about 20 s.
const (
	braunIterRate = 62 // sequential cMA, 5x5, LMCTS, 512x16
	largeIterRate = 6  // Workers = 2, sampled LMCTS, 16384x256
	largeSpec     = "16384x256:c_hihi"
	largeWorkers  = 2
	// largeSetupRepeats is fewer than setupRepeats: generating the
	// 32 MiB matrix takes most of a second.
	largeSetupRepeats = 3
)

// solveOut is what one cMA solve leaves for the checks and metrics.
type solveOut struct {
	res   run.Result
	wall  time.Duration
	steps []time.Duration // wall time of every iteration
}

// solve runs one cMA on in, timing every iteration through the run
// observer (the engine calls it after each iteration).
func solve(in *etc.Instance, cfg cma.Config, iters int, seed uint64) (solveOut, error) {
	s, err := cma.New(cfg)
	if err != nil {
		return solveOut{}, err
	}
	var out solveOut
	var last time.Duration
	obs := func(p run.Progress) {
		if p.Iteration > 0 {
			out.steps = append(out.steps, p.Elapsed-last)
		}
		last = p.Elapsed
	}
	t0 := time.Now()
	out.res = s.Run(in, run.Budget{MaxIterations: iters}, seed, obs)
	out.wall = time.Since(t0)
	return out, nil
}

// checkSolve re-derives the reported makespan with gridcma.Evaluate,
// checks it against the lower bound and returns makespan ÷ LB.
func checkSolve(rc *runCtx, what string, in *etc.Instance, lb float64, res run.Result) float64 {
	mk, _, _ := gridcma.Evaluate(in, res.Best)
	rc.check("Evaluate re-derives makespan", mk == res.Makespan, "%s: reported makespan %v, Evaluate gives %v", what, res.Makespan, mk)
	return checkBound(rc, what, lb, res.Makespan)
}

// sameResult reports whether two runs found the same best schedule.
func sameResult(a, b run.Result) bool {
	return a.Makespan == b.Makespan && a.Flowtime == b.Flowtime && a.Best.Equal(b.Best)
}

// decorate wraps the configuration's operators, local search and seed
// heuristic in timing decorators that record one span per call under
// parent. The engine sees the same methods, so the run is unchanged.
func decorate(cfg *cma.Config, tr *tracer, parent int64, req uint64) {
	cfg.LocalSearch = timedLS{cfg.LocalSearch, tr, parent, req}
	cfg.Selector = timedSelector{cfg.Selector, tr, parent, req}
	cfg.Crossover = timedCrossover{cfg.Crossover, tr, parent, req}
	cfg.Mutator = timedMutator{cfg.Mutator, tr, parent, req}
	if h := cfg.SeedHeuristic; h != nil {
		cfg.SeedHeuristic = func(in *etc.Instance) schedule.Schedule {
			t0 := tr.now()
			s := h(in)
			tr.record(0, "heuristics.seed", parent, req, t0)
			return s
		}
	}
}

type timedLS struct {
	localsearch.Method
	tr     *tracer
	parent int64
	req    uint64
}

func (m timedLS) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	t0 := m.tr.now()
	m.Method.Improve(st, o, iters, r)
	m.tr.record(0, "localsearch.improve", m.parent, m.req, t0)
}

type timedSelector struct {
	operators.Selector
	tr     *tracer
	parent int64
	req    uint64
}

func (s timedSelector) Select(candidates []int, fitness func(int) float64, r *rng.Source) int {
	t0 := s.tr.now()
	c := s.Selector.Select(candidates, fitness, r)
	s.tr.record(0, "operators.select", s.parent, s.req, t0)
	return c
}

type timedCrossover struct {
	operators.Crossover
	tr     *tracer
	parent int64
	req    uint64
}

func (c timedCrossover) Cross(a, b, child schedule.Schedule, r *rng.Source) {
	t0 := c.tr.now()
	c.Crossover.Cross(a, b, child, r)
	c.tr.record(0, "operators.crossover", c.parent, c.req, t0)
}

type timedMutator struct {
	operators.Mutator
	tr     *tracer
	parent int64
	req    uint64
}

func (m timedMutator) Mutate(st *schedule.State, r *rng.Source) {
	t0 := m.tr.now()
	m.Mutator.Mutate(st, r)
	m.tr.record(0, "operators.mutate", m.parent, m.req, t0)
}

// searchLayers are the layers the cMA decorators time.
var searchLayers = []string{"localsearch.improve", "operators.select", "operators.crossover", "operators.mutate", "heuristics.seed"}

// putSearchLayers reports the decorator spans of a traced phase whose
// solves took wall in total and ran on workers goroutines; it returns
// their summed busy time.
func putSearchLayers(rc *runCtx, wall time.Duration, workers int) time.Duration {
	tr := rc.tr
	var busy time.Duration
	capacity := wall.Seconds() * float64(workers)
	for _, name := range searchLayers {
		s := tr.sum(name)
		busy += s.busy
		rc.put(name+".share", s.busy.Seconds()/capacity)
		rc.put(name+".busy_s", s.busy.Seconds())
	}
	ls := tr.sum("localsearch.improve")
	rc.put("localsearch.improve.n", float64(ls.n))
	rc.put("localsearch.improve.mean_us", ls.meanUs())
	return busy
}

// batchSolve is one solve of a batch phase, traced when tr is not nil.
func batchSolve(tr *tracer, req uint64, in *etc.Instance, cfg cma.Config, iters int, seed uint64) (solveOut, error) {
	if tr == nil {
		return solve(in, cfg, iters, seed)
	}
	id, t0 := tr.newID(), tr.now()
	decorate(&cfg, tr, id, req)
	o, err := solve(in, cfg, iters, seed)
	tr.record(id, "cma.solve", 0, req, t0)
	return o, err
}

// runBraun is the paper's experiment: the sequential cMA with the Table 1
// configuration on each of the 12 Braun instances, all on the run seed.
// A step is one cMA iteration.
func runBraun(rc *runCtx) error {
	names := gridcma.BenchmarkInstanceNames()
	iters := rc.count(braunIterRate/float64(len(names)), 2)
	if rc.quick {
		// One hihi instance per consistency class, at the traced phase's
		// iteration budget of a 10 s run; shorter solves would be dominated
		// by building the population, which no wrapped layer covers.
		names, iters = []string{names[0], names[4], names[8]}, 20
	}
	var m measured
	base := heapMiB()
	var ins []*etc.Instance
	for r := 0; r < setupRepeats; r++ {
		d, err := timeSetup(func() error {
			ins = ins[:0]
			for _, n := range names {
				in, err := gridcma.BenchmarkInstance(n)
				if err != nil {
					return err
				}
				ins = append(ins, in)
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.setups = append(m.setups, d)
	}
	lbs := make([]float64, len(ins))
	for i, in := range ins {
		lbs[i] = lowerBound(in)
	}

	phase := func(tr *tracer, sw *stopwatch) ([]solveOut, error) {
		outs := make([]solveOut, len(ins))
		sw.start()
		defer sw.stop()
		for i, in := range ins {
			o, err := batchSolve(tr, uint64(i+1), in, cma.DefaultConfig(), iters, rc.seed)
			if err != nil {
				return nil, err
			}
			outs[i] = o
		}
		return outs, nil
	}
	plain, err := phase(nil, &m.sw)
	if err != nil {
		return err
	}
	m.heap = heapMiB() - base
	var evals int64
	for i, o := range plain {
		m.ratios = append(m.ratios, checkSolve(rc, names[i], ins[i], lbs[i], o.res))
		m.steps = append(m.steps, o.steps...)
		evals += o.res.Evals
	}
	rc.ops(len(ins), 0)
	rc.putEndToEnd(&m)
	rc.put("evals_per_s", float64(evals)/m.sw.wall.Seconds())
	if !rc.trace {
		return nil
	}

	var tsw stopwatch
	traced, err := phase(rc.tr, &tsw)
	if err != nil {
		return err
	}
	var wall time.Duration
	for i, o := range traced {
		rc.check("traced = untraced", sameResult(o.res, plain[i].res), "%s: traced makespan %v, untraced %v", names[i], o.res.Makespan, plain[i].res.Makespan)
		wall += o.wall
	}
	rc.putOverhead(m.sw, tsw)
	busy := putSearchLayers(rc, wall, 1)
	rc.put("trace.layer_sum_frac", busy.Seconds()/wall.Seconds())
	rc.put("cma.evals", float64(evals))
	rc.put("cma.self_s", (wall - busy).Seconds())
	rc.put("cma.self.share", (wall-busy).Seconds()/wall.Seconds())
	return putKernels(rc, ins)
}

// runLarge runs the wave-parallel cMA on largeWorkers goroutines with
// sampled LMCTS on one 16384x256 instance generated from the seed. A step
// is one cMA iteration.
func runLarge(rc *runCtx) error {
	spec, iters := fmt.Sprintf("%s:s%d", largeSpec, rc.seed), rc.count(largeIterRate, 2)
	if rc.quick {
		spec, iters = fmt.Sprintf("1024x32:c_hihi:s%d", rc.seed), 2
	}
	gs, err := etc.ParseGenSpec(spec)
	if err != nil {
		return err
	}
	var m measured
	base := heapMiB()
	var in *etc.Instance
	for r := 0; r < largeSetupRepeats; r++ {
		in = nil // let the previous instance go before building the next
		d, err := timeSetup(func() (err error) {
			in, err = gs.Generate()
			return err
		})
		if err != nil {
			return err
		}
		m.setups = append(m.setups, d)
	}
	lb := lowerBound(in)
	config := func(workers int) cma.Config {
		cfg := cma.DefaultConfig()
		cfg.Workers = workers
		cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 64}
		return cfg
	}

	goroutines := runtime.NumGoroutine()
	m.sw.start()
	plain, err := solve(in, config(largeWorkers), iters, rc.seed)
	m.sw.stop()
	if err != nil {
		return err
	}
	settle(goroutines)
	m.heap = heapMiB() - base
	m.ratios = []float64{checkSolve(rc, spec, in, lb, plain.res)}
	m.steps = plain.steps
	rc.ops(1, 0)
	rc.putEndToEnd(&m)
	rc.put("evals_per_s", float64(plain.res.Evals)/m.sw.wall.Seconds())
	if !rc.trace {
		return nil
	}

	var tsw stopwatch
	tsw.start()
	traced, err := batchSolve(rc.tr, 1, in, config(largeWorkers), iters, rc.seed)
	tsw.stop()
	if err != nil {
		return err
	}
	rc.check("traced = untraced", sameResult(traced.res, plain.res), "traced makespan %v, untraced %v", traced.res.Makespan, plain.res.Makespan)
	// The engine's schedules depend only on the seed: Workers = 1 must
	// reproduce Workers = 2, and its wall time is the speed-up's base.
	one, err := solve(in, config(1), iters, rc.seed)
	if err != nil {
		return err
	}
	rc.check("workers 1 = workers 2", sameResult(one.res, plain.res),
		"Workers=1 makespan %v, Workers=%d makespan %v", one.res.Makespan, largeWorkers, plain.res.Makespan)

	rc.putOverhead(m.sw, tsw)
	busy := putSearchLayers(rc, traced.wall, largeWorkers)
	busyFrac := busy.Seconds() / (traced.wall.Seconds() * largeWorkers)
	rc.put("trace.layer_sum_frac", busyFrac)
	rc.put("cma.par.busy_frac", busyFrac)
	rc.put("cma.par.speedup", one.wall.Seconds()/plain.wall.Seconds())
	rc.put("cma.evals", float64(traced.res.Evals))
	rc.put("etc.generate_s", median(seconds(m.setups)))
	return putKernels(rc, []*etc.Instance{in})
}

// putKernels times the schedule.State kernels behind local search with
// direct calls on each instance, replaying the churn streams of cmd/bench's
// micro rows: random single-move probes, full move-target sweeps, and
// cached critical-swap scans with one committed random move between scans.
func putKernels(rc *runCtx, ins []*etc.Instance) error {
	probes, sweeps, scans := 20000, 2000, 400
	if rc.quick {
		probes, sweeps, scans = 2000, 200, 40
	}
	o := schedule.DefaultObjective
	tr := rc.tr
	var probeT, sweepT, scanT time.Duration
	var sink float64
	for i, in := range ins {
		req := uint64(i + 1)
		r := rng.New(rc.seed)
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		t0 := tr.now()
		for n := 0; n < probes; n++ {
			sink += st.FitnessAfterMove(o, r.Intn(in.Jobs), r.Intn(in.Machs))
		}
		probeT += tr.record(0, "schedule.probe_move", 0, req, t0)
		t0 = tr.now()
		for n := 0; n < sweeps; n++ {
			j := r.Intn(in.Jobs)
			sink += st.FitnessAfterMoveSweep(o, j, nil)[j%in.Machs]
		}
		sweepT += tr.record(0, "schedule.sweep_move", 0, req, t0)
		sc := st.Scans(o)
		for n := 0; n < scans; n++ {
			t0 = tr.now()
			v, _, _ := sc.BestCriticalSwap()
			scanT += tr.record(0, "schedule.cached_swap_scan", 0, req, t0)
			sink += v
			st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		}
	}
	if sink == 0 {
		return fmt.Errorf("kernel replay produced no fitness values")
	}
	n := float64(len(ins))
	rc.put("schedule.probe_move.mean_ns", float64(probeT.Nanoseconds())/(n*float64(probes)))
	rc.put("schedule.sweep_move.mean_ns", float64(sweepT.Nanoseconds())/(n*float64(sweeps)))
	rc.put("schedule.cached_swap_scan.mean_ns", float64(scanT.Nanoseconds())/(n*float64(scans)))
	return nil
}
