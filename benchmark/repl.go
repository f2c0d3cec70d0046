package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridcma/internal/daemon"
	"gridcma/internal/eventlog"
	"gridcma/internal/transport"
)

// gridd-repl sizes: each unit drives one daemon.Script of replEvents
// events on fresh daemons, which keeps the grid, and with it the
// per-event digest, bounded. replEventRate is acknowledged events per
// second on the reference machine.
const (
	replEvents    = 2000
	replEventRate = 4500
	replChunk     = 100 // events per drive chunk; see replUnit
)

// timedClient records a span per call; the follower's Dial hook and the
// island coordinator's worker factory return it, so every call is timed
// from the caller's side.
type timedClient struct {
	transport.Client
	tr   *tracer
	name string
	last time.Duration // the latest call's duration, read by the caller's goroutine
}

func (c *timedClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	t0 := c.tr.now()
	resp, err := c.Client.Call(ctx, req)
	c.last = c.tr.record(0, c.name, 0, req.ID, t0)
	return resp, err
}

// timedHandler records a span per handled request.
type timedHandler struct {
	transport.Handler
	tr   *tracer
	name string
}

func (h timedHandler) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	t0 := h.tr.now()
	resp, err := h.Handler.Handle(ctx, req)
	h.tr.record(0, h.name, 0, req.ID, t0)
	return resp, err
}

// serveTransport serves h on a loopback port and returns its address and
// a stop function that drains the server and waits for it.
func serveTransport(h transport.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := transport.NewServer(h)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // a timeout force-closes the connections
		// Shutdown closes only a listener that Serve has registered; a
		// stop that comes first must close it here, or Serve would block
		// in Accept for good.
		ln.Close()
		<-served
	})
	return ln.Addr().String(), stop, nil
}

// replRig is a primary serving replication over loopback TCP and one
// follower pulling from it, each daemon with its own WAL.
type replRig struct {
	gcfg              daemon.Config
	pLog, fLog        string
	primary, follower *daemon.Daemon
	repl              *daemon.Replicator
	close             func() error // stops the follower, the server and both daemons; idempotent

	// ackNano[seq] is when the primary acknowledged event seq; the
	// follower's OnApply hook turns it into a lag sample.
	ackNano []atomic.Int64
	lagMu   sync.Mutex
	lags    []time.Duration

	// Traced: the follower pulls in a loop over Replicator.Step, timed
	// along with the pull call inside it.
	client             *timedClient
	stepErrs           int
	steps              int
	stepBusy, callBusy time.Duration
}

// newReplRig boots the primary and the follower in dir and starts
// replication: the workload's set-up. events sizes the lag bookkeeping.
// The follower pulls with Replicator.Run or, traced, with a loop over
// Replicator.Step whose Dial hook returns a timed client while the
// primary's ReplServer sits behind a timed handler.
func newReplRig(dir string, seed uint64, events int, tr *tracer) (g *replRig, err error) {
	g = &replRig{
		gcfg:    daemon.DefaultConfig(),
		pLog:    filepath.Join(dir, "primary.log"),
		fLog:    filepath.Join(dir, "follower.log"),
		ackNano: make([]atomic.Int64, events+2),
	}
	g.gcfg.Seed = seed
	var closers []func() error
	g.close = sync.OnceValue(func() error {
		var errs []error
		for i := len(closers) - 1; i >= 0; i-- {
			errs = append(errs, closers[i]())
		}
		return errors.Join(errs...)
	})
	defer func() {
		if err != nil {
			g.close()
		}
	}()

	if g.primary, err = daemon.NewDaemon(daemon.ServerConfig{Grid: g.gcfg, LogPath: g.pLog}); err != nil {
		return nil, err
	}
	closers = append(closers, g.primary.Stop)
	rs, err := daemon.NewReplServer(g.primary, daemon.ReplConfig{})
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() error { rs.Close(); return nil })
	var h transport.Handler = rs
	if tr != nil {
		h = timedHandler{rs, tr, "daemon.repl.serve"}
	}
	addr, stopServer, err := serveTransport(h)
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() error { stopServer(); return nil })
	if g.follower, err = daemon.NewDaemon(daemon.ServerConfig{Grid: g.gcfg, LogPath: g.fLog}); err != nil {
		return nil, err
	}
	closers = append(closers, g.follower.Stop)

	rcfg := daemon.ReplicatorConfig{Primary: addr, ID: "bench", Poll: time.Millisecond, OnApply: g.onApply}
	if tr != nil {
		rcfg.Dial = func() (transport.Client, error) {
			c, err := transport.Dial(addr, 10*time.Second)
			if err != nil {
				return nil, err
			}
			g.client = &timedClient{Client: c, tr: tr, name: "transport.call"}
			return g.client, nil
		}
	}
	if g.repl, err = daemon.NewReplicator(g.follower, rcfg); err != nil {
		return nil, err
	}
	if tr == nil {
		g.repl.Run()
		closers = append(closers, func() error { g.repl.Stop(); return nil })
		return g, nil
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s0 := tr.now()
			n, err := g.repl.Step(ctx)
			d := tr.record(0, "daemon.repl.step", 0, 0, s0)
			cancel()
			if err != nil {
				g.stepErrs++
			}
			if n > 0 {
				g.steps++
				g.stepBusy += d
				g.callBusy += g.client.last
			} else {
				time.Sleep(rcfg.Poll)
			}
		}
	}()
	closers = append(closers, func() error {
		close(stop)
		<-done
		g.repl.Stop()
		return nil
	})
	return g, nil
}

func (g *replRig) onApply(e eventlog.Event) {
	if e.Seq < uint64(len(g.ackNano)) {
		if t := g.ackNano[e.Seq].Load(); t > 0 {
			g.lagMu.Lock()
			g.lags = append(g.lags, time.Duration(time.Now().UnixNano()-t))
			g.lagMu.Unlock()
		}
	}
}

// replOut is what one gridd-repl unit leaves for the metrics.
type replOut struct {
	drive, catchup     time.Duration
	layerSums          []float64       // traced: per chunk, the bare replay's layers ÷ the chunk's drive
	acks               []time.Duration // ApplyEvent latency per event
	lags               []time.Duration // primary ack to follower apply, per event
	heap               float64
	ratios             []float64    // live makespan ÷ lower bound, sampled from the WAL
	final              *daemon.Grid // the WAL replayed
	digest             string
	script             []eventlog.Event
	failed, attempted  int
	stepBusy, callBusy time.Duration // traced follower loop: Step and its pull call
	steps              int
	wire               []time.Duration // traced: pull call minus the primary's handling
}

// replUnit runs unit k's script through a fresh rig; sw times the drive
// and the follower's catch-up.
func replUnit(rc *runCtx, k, events int, tr *tracer, sw *stopwatch) (replOut, error) {
	var out replOut
	dir, err := os.MkdirTemp(rc.dir, "repl-")
	if err != nil {
		return out, err
	}
	mark := 0
	if tr != nil {
		mark = tr.mark()
	}
	base := heapMiB()
	g, err := newReplRig(dir, unitSeed(rc.seed, k), events, tr)
	if err != nil {
		return out, err
	}
	defer g.close()

	// The script ends with an admission, so no job is left stranded on a
	// departed machine when the live instance is extracted.
	out.script = append(daemon.Script(g.gcfg.Seed, g.gcfg.MachCap, events), eventlog.Event{Type: eventlog.Admit})
	// Traced, every chunk the primary acknowledges is replayed at once
	// through a bare Grid and Writer, outside sw, so that the drive and the
	// replay that explains it see the same load on the host and the same
	// follower pulling beside them.
	var bare *bareReplay
	if tr != nil {
		if bare, err = newBareReplay(g.gcfg, filepath.Join(dir, "bare.log")); err != nil {
			return out, err
		}
		defer bare.f.Close()
	}
	sw.start()
	for i := 0; i < len(out.script); i += replChunk {
		part := out.script[i:min(i+replChunk, len(out.script))]
		t0 := time.Now()
		for _, e := range part {
			a0 := time.Now()
			stamped, err := g.primary.ApplyEvent(e)
			now := time.Now()
			out.acks = append(out.acks, now.Sub(a0))
			if err != nil {
				out.failed++
				continue
			}
			if stamped.Seq < uint64(len(g.ackNano)) {
				g.ackNano[stamped.Seq].Store(now.UnixNano())
			}
		}
		chunk := time.Since(t0)
		out.drive += chunk
		if bare != nil {
			sw.stop()
			busy, err := bare.apply(tr, part)
			if err != nil {
				return out, err
			}
			out.layerSums = append(out.layerSums, busy.Seconds()/chunk.Seconds())
			sw.start()
		}
	}
	c0 := time.Now()
	target := g.primary.AppliedSeq()
	for deadline := c0.Add(time.Minute); g.follower.AppliedSeq() < target; {
		if time.Now().After(deadline) {
			sw.stop()
			return out, fmt.Errorf("follower stuck at %d of %d", g.follower.AppliedSeq(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	out.catchup = time.Since(c0)
	sw.stop()
	out.heap = heapMiB() - base

	out.digest = g.primary.GridDigest()
	fd := g.follower.GridDigest()
	rc.check("follower digest = primary", fd == out.digest, "unit %d: follower %s, primary %s", k, fd, out.digest)
	if bare != nil {
		bd := bare.g.Digest()
		rc.check("bare replay = primary", bd == out.digest, "unit %d: bare replay %s, primary %s", k, bd, out.digest)
	}
	if err := g.close(); err != nil {
		return out, err
	}
	st := g.repl.Stats()
	out.attempted = len(out.script) + int(st.Pulls)
	out.failed += g.stepErrs + int(st.Reconnects+st.Rejects)
	out.lags = g.lags
	out.steps, out.stepBusy, out.callBusy = g.steps, g.stepBusy, g.callBusy
	if tr != nil {
		out.wire = tr.pairs(mark, "transport.call", "daemon.repl.serve")
	}
	pb, err := os.ReadFile(g.pLog)
	if err != nil {
		return out, err
	}
	fb, err := os.ReadFile(g.fLog)
	if err != nil {
		return out, err
	}
	rc.check("follower WAL = primary WAL", bytes.Equal(pb, fb), "unit %d: follower WAL %d bytes, primary %d", k, len(fb), len(pb))
	out.final, out.ratios, err = replayLive(rc, g.gcfg, g.pLog)
	if err != nil {
		return out, err
	}
	rc.check("WAL replay = primary", out.final.Digest() == out.digest, "unit %d: replayed digest %s, primary %s", k, out.final.Digest(), out.digest)
	return out, os.RemoveAll(dir)
}

// bareReplay replays events through a bare Grid and a Writer on a file,
// with Grid.Digest and Writer.Flush after every event: the primary's
// replicated write path, one layer per call.
type bareReplay struct {
	g *daemon.Grid
	f *os.File
	w *eventlog.Writer
}

func newBareReplay(gcfg daemon.Config, path string) (*bareReplay, error) {
	g, err := daemon.NewGrid(gcfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &bareReplay{g, f, eventlog.NewWriter(f)}, nil
}

// apply replays events and returns the time its layers took.
func (b *bareReplay) apply(tr *tracer, events []eventlog.Event) (time.Duration, error) {
	var busy time.Duration
	for _, e := range events {
		req := b.g.Applied() + 1
		d, err := timedApply(tr, b.g, b.w, e, req)
		busy += d
		if err != nil {
			return busy, err
		}
		t0 := tr.now()
		b.g.Digest()
		busy += tr.record(0, "daemon.grid.digest", 0, req, t0)
		d, err = timedFlush(tr, b.w, req)
		busy += d
		if err != nil {
			return busy, err
		}
	}
	return busy, nil
}

// runRepl drives single events through a replicated primary, one fresh
// pair of daemons per unit. A step is one ApplyEvent: the primary's
// acknowledgement of one event.
func runRepl(rc *runCtx) error {
	events, units := replEvents, rc.count(replEventRate/float64(replEvents), 3)
	if rc.quick {
		// trace.layer_sum_frac is the median over the drive chunks; the 35
		// chunks of five units steady it.
		events, units = 600, 5
	}
	var m measured
	for r := 0; r < setupRepeats; r++ {
		dir, err := os.MkdirTemp(rc.dir, "repl-setup-")
		if err != nil {
			return err
		}
		var g *replRig
		d, err := timeSetup(func() (err error) {
			g, err = newReplRig(dir, unitSeed(rc.seed, r), 0, nil)
			return err
		})
		if err != nil {
			return err
		}
		if err := g.close(); err != nil {
			return err
		}
		m.setups = append(m.setups, d)
	}
	phase := func(tr *tracer, sw *stopwatch) ([]replOut, error) {
		outs := make([]replOut, units)
		for k := range outs {
			o, err := replUnit(rc, k, events, tr, sw)
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
	var lags, catchups []time.Duration
	var heaps []float64
	var drive time.Duration
	acked := 0
	for _, o := range plain {
		m.steps = append(m.steps, o.acks...)
		m.ratios = append(m.ratios, o.ratios...)
		lags = append(lags, o.lags...)
		catchups = append(catchups, o.catchup)
		heaps = append(heaps, o.heap)
		drive += o.drive
		acked += len(o.script) - o.failed
		rc.ops(o.attempted, o.failed)
	}
	m.heap = median(heaps)
	rc.putEndToEnd(&m)
	rc.put("events_per_s", float64(acked)/drive.Seconds())
	if !rc.trace {
		return nil
	}

	tr := rc.tr
	var tsw stopwatch
	traced, err := phase(tr, &tsw)
	if err != nil {
		return err
	}
	var stepBusy, callBusy, wired, tdrive time.Duration
	var wires, steps, shipped int
	var layerSums []float64
	for k, o := range traced {
		rc.check("traced = untraced", o.digest == plain[k].digest, "unit %d: traced digest %s, untraced %s", k, o.digest, plain[k].digest)
		stepBusy, callBusy, steps = stepBusy+o.stepBusy, callBusy+o.callBusy, steps+o.steps
		for _, d := range o.wire {
			wired += d
		}
		wires += len(o.wire)
		shipped += len(o.script)
		tdrive += o.drive
		layerSums = append(layerSums, o.layerSums...)
	}

	putGridLayers(rc, tdrive, "submit", "complete", "admit", "join", "leave")
	dig := tr.sum("daemon.grid.digest")
	rc.putOverhead(m.sw, tsw)
	rc.put("trace.layer_sum_frac", median(layerSums))
	rc.put("daemon.grid.digest.n", float64(dig.n))
	rc.put("daemon.grid.digest.mean_us", dig.meanUs())
	rc.put("daemon.grid.digest.share", dig.busy.Seconds()/tdrive.Seconds())
	rc.put("daemon.repl.serve.mean_us", tr.sum("daemon.repl.serve").meanUs())
	call := tr.sum("transport.call")
	rc.put("daemon.repl.events_per_pull", ratio(float64(shipped), float64(call.n)))
	rc.put("transport.call.mean_us", call.meanUs())
	rc.put("transport.wire.mean_us", ratio(wired.Seconds()*1e6, float64(wires)))
	rc.put("transport.wire.share", ratio(wired.Seconds(), call.busy.Seconds()))
	rc.put("daemon.repl.apply.mean_us", ratio((stepBusy-callBusy).Seconds()*1e6, float64(steps)))
	rc.putN("daemon.repl.lag_p50_ms", quantile(millis(lags), 0.5), len(lags))
	rc.putN("daemon.repl.lag_p99_ms", quantile(millis(lags), 0.99), len(lags))
	rc.putN("daemon.repl.catchup_ms", median(millis(catchups)), len(catchups))
	return putKernels(rc, liveInstances(plain[len(plain)-1].final))
}
