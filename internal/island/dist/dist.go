// Package dist runs the island model's one round loop: a coordinator
// drives segment/migration rounds against supervised workers reached
// over a pluggable transport (internal/transport). The library's island
// engine is this loop over in-process workers (InProcess); islandd
// serves it over TCP. The determinism contract: under an iteration
// budget a failure-free run is bit-identical, for any transport and
// worker count, to the wholesale reference loop in this package's tests
// (every mesh rebuilt from its schedules at every segment), and a
// faulted run is a pure function of (seed, fault plan). A wall-clock
// budget is checked at round boundaries, so the run ends after the round
// in which the time ran out.
//
// The design choice everything else follows from: the coordinator owns
// every island's population, and each request carries all of it. A
// segment RPC is a pure function (instance, config, seed, iterations,
// population) → (result, evolved population), so the coordinator's copy
// of the population is the run's whole state — retrying a timed-out
// call, delivering it twice, or re-sending it to a freshly restarted
// worker are all harmless by construction. That state lives only in the
// coordinator's memory: a coordinator crash loses the run, and under an
// iteration budget a rerun with the same seed reproduces its bytes. A
// worker does keep each island's live States between segments, but as a
// verified cache: it re-targets them at the shipped population (see
// worker.go), so losing or mismatching the cache changes what a segment
// costs, never what it returns. Supervision is then simple: per-call
// timeouts with jittered exponential retry (internal/retry), lazy
// restarts through a worker factory, and when a worker stays dead past
// its restart budget, its islands are declared lost, the migration ring
// heals around them (island.PlanMigration with the alive mask), and the
// run completes on the survivors instead of hanging the barrier. Report
// records the supervision: deaths, restarts and recovery times.
package dist

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gridcma/internal/cma"
	"gridcma/internal/config"
	"gridcma/internal/etc"
	"gridcma/internal/island"
	"gridcma/internal/retry"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
	"gridcma/internal/transport"
)

// Config parameterises a distributed island run.
type Config struct {
	// Islands, MigrationEvery, Migrants mirror island.Config.
	Islands        int
	MigrationEvery int
	Migrants       int
	// Spec is the base cMA configuration in wire form — the same bytes
	// the workers receive, so coordinator and workers build identical
	// engines from it.
	Spec config.Spec
	// Workers is the number of worker processes; island i is pinned to
	// worker i % Workers.
	Workers int
	// Instance is the generator spec sent to workers ("" is allowed only
	// with pinned in-process workers).
	Instance string
	// CallTimeout bounds each RPC (0 = 30s).
	CallTimeout time.Duration
	// Retry is the per-call retry/backoff policy (zero value = 4
	// attempts, 50ms initial, 20% jitter).
	Retry retry.Policy
	// MaxRestarts is the consecutive failed-restart budget per worker
	// before it is abandoned for good (0 = 3).
	MaxRestarts int
}

func (c Config) callTimeout() time.Duration {
	if c.CallTimeout <= 0 {
		return 30 * time.Second
	}
	return c.CallTimeout
}

func (c Config) maxRestarts() int {
	if c.MaxRestarts == 0 {
		return 3
	}
	return c.MaxRestarts
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	base, err := c.Spec.Build()
	if err != nil {
		return err
	}
	ic := island.Config{Islands: c.Islands, MigrationEvery: c.MigrationEvery, Migrants: c.Migrants, Base: base}
	if err := ic.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("dist: need at least 1 worker, got %d", c.Workers)
	}
	return nil
}

// WorkerFactory starts (or restarts) worker w, returning its transport
// client. For in-process workers it wraps a fresh transport.Local; for
// TCP it redials the worker's address. A restart needs no recovery: the
// coordinator re-sends populations, and a restarted worker rebuilds the
// island meshes it lost from them.
type WorkerFactory func(w int) (transport.Client, error)

// Death records one island's permanent loss.
type Death struct {
	Island int    `json:"island"`
	Round  int    `json:"round"`
	Reason string `json:"reason"`
}

// Report is the observability side of a run: per-round digests (the
// determinism contract's trajectory), survivor set, supervision counters
// and latency/recovery samples.
type Report struct {
	Islands   int      `json:"islands"`
	Workers   int      `json:"workers"`
	Rounds    int      `json:"rounds"`
	Survivors []int    `json:"survivors"`
	Deaths    []Death  `json:"deaths,omitempty"`
	Digests   []string `json:"digests"`

	Restarts   int       `json:"restarts"`
	RoundMs    []float64 `json:"round_ms"`
	RecoveryMs []float64 `json:"recovery_ms,omitempty"`
}

// handle supervises one worker: its live client, liveness flags and
// restart budget. The mutex serialises every RPC to the worker (segment
// calls from its pinned islands) and its restarts.
type handle struct {
	idx int

	mu           sync.Mutex
	client       transport.Client
	dead         bool // needs a restart before the next call
	down         bool // abandoned: restart budget exhausted
	restartFails int
	failedAt     time.Time // first failure of the current outage
}

// Coordinator drives rounds against a fixed worker set.
type Coordinator struct {
	cfg     Config
	base    cma.Config
	timeout time.Duration // per call; 0 = none
	factory WorkerFactory

	workers []*handle
	callID  atomic.Uint64

	statsMu    sync.Mutex
	restarts   int
	recoveries []float64
}

// New builds a coordinator; factory is called once per worker up front
// (failing fast on unreachable workers) and again on every restart.
func New(cfg Config, factory WorkerFactory) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, err := cfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	return newCoordinator(cfg, base, cfg.callTimeout(), factory)
}

// newCoordinator starts the workers of a validated configuration whose
// base cMA is base. A timeout of 0 puts no deadline on a call.
func newCoordinator(cfg Config, base cma.Config, timeout time.Duration, factory WorkerFactory) (*Coordinator, error) {
	c := &Coordinator{cfg: cfg, base: base, timeout: timeout, factory: factory}
	for w := 0; w < cfg.Workers; w++ {
		cl, err := factory(w)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: start worker %d: %w", w, err)
		}
		c.workers = append(c.workers, &handle{idx: w, client: cl})
	}
	return c, nil
}

// Close releases every worker client.
func (c *Coordinator) Close() {
	for _, h := range c.workers {
		h.mu.Lock()
		if h.client != nil {
			h.client.Close()
		}
		h.mu.Unlock()
	}
}

// Errors the supervision stack distinguishes.
var (
	errWorkerDown    = errors.New("dist: worker permanently down")
	errRestartFailed = errors.New("dist: worker restart failed")
)

// Run executes the distributed island model within budget. An
// iteration budget (MaxIterations) is the deterministic one: the run is
// a pure function of (seed, fault plan) for any transport and worker
// count. A MaxTime budget (or the deadline of the budget's context) is
// checked at round boundaries, so a run ends after the round in which
// its time ran out; how many rounds that is depends on the machine. A
// cancelled context ends the run early: Run returns the best result so
// far, with the context's error. That includes the replies of the round
// in flight: an in-process segment the cancellation cut short still
// answers with its best so far.
func (c *Coordinator) Run(in *etc.Instance, budget run.Budget, seed uint64) (run.Result, *Report, error) {
	return c.run(in, budget, seed, nil)
}

// run is Run with obs called after every round.
func (c *Coordinator) run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) (run.Result, *Report, error) {
	if budget.MaxIterations < 0 || budget.MaxTime < 0 || !budget.Bounded() {
		return run.Result{}, nil, errors.New("dist: the budget must bound the run (MaxIterations, MaxTime or a context deadline)")
	}
	ctx := budget.Context()
	n := c.cfg.Islands
	start := time.Now()

	pops := make([][]schedule.Schedule, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	rep := &Report{Islands: n, Workers: c.cfg.Workers}
	var best run.Result
	totalIters := 0
	var totalEvals int64
	finish := func() run.Result {
		best.Iterations = totalIters
		best.Evals = totalEvals
		best.Elapsed = time.Since(start)
		best.Algorithm = fmt.Sprintf("DistIslandCMA(%d/%d)", n, c.cfg.Workers)
		return best
	}

	results := make([]*transport.Response, n)
	fails := make([]error, n)
	fits := make([][]float64, n)

	for !budget.Done(totalIters, start) {
		round := rep.Rounds
		segIters := c.cfg.MigrationEvery
		if budget.MaxIterations > 0 && totalIters+segIters > budget.MaxIterations {
			segIters = budget.MaxIterations - totalIters
		}

		roundStart := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			results[i], fails[i] = nil, nil
			if !alive[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := &transport.Request{
					Kind: transport.KindSegment,
					Seg: &transport.SegmentRequest{
						Instance: c.cfg.Instance,
						Config:   c.cfg.Spec,
						Island:   i,
						Round:    round,
						Iters:    segIters,
						Seed:     island.SegmentSeed(seed, i, totalIters),
						Final:    totalIters+segIters == budget.MaxIterations,
						Pop:      pops[i],
					},
				}
				results[i], fails[i] = c.callSegment(ctx, in, c.workers[i%c.cfg.Workers], req, round)
			}(i)
		}
		wg.Wait()
		rep.RoundMs = append(rep.RoundMs, float64(time.Since(roundStart).Microseconds())/1000)

		cancelled := ctx.Err() != nil
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			if fails[i] != nil {
				if cancelled {
					continue // the run's end, not the worker's fault
				}
				alive[i] = false
				rep.Deaths = append(rep.Deaths, Death{Island: i, Round: round, Reason: fails[i].Error()})
				continue
			}
			seg := results[i].Seg
			pops[i], fits[i] = seg.Pop, seg.Fits
			totalEvals += seg.Evals
			res := run.Result{
				Best:     seg.Best,
				Fitness:  seg.Fitness,
				Makespan: seg.Makespan,
				Flowtime: seg.Flowtime,
			}
			if res.Better(best) {
				best = res
			}
		}
		if cancelled {
			// A segment cut short still returned its best so far; the
			// round's partial populations are not migrated.
			return finish(), rep, ctx.Err()
		}
		if !anyAlive(alive) {
			return run.Result{}, rep, errors.New("dist: every island lost its worker")
		}
		totalIters += segIters
		c.migrate(pops, fits, alive)
		rep.Rounds = round + 1
		rep.Digests = append(rep.Digests, roundDigest(round, alive, pops))
		if obs != nil && best.Best != nil {
			obs(run.Progress{
				Elapsed:   time.Since(start),
				Iteration: totalIters,
				Fitness:   best.Fitness,
				Makespan:  best.Makespan,
				Flowtime:  best.Flowtime,
			})
		}
	}

	for i := 0; i < n; i++ {
		if alive[i] {
			rep.Survivors = append(rep.Survivors, i)
		}
	}
	c.statsMu.Lock()
	rep.Restarts = c.restarts
	rep.RecoveryMs = append([]float64(nil), c.recoveries...)
	c.statsMu.Unlock()
	return finish(), rep, ctx.Err()
}

func anyAlive(alive []bool) bool {
	for _, a := range alive {
		if a {
			return true
		}
	}
	return false
}

// migrate performs the ring exchange over the alive islands: plan over
// the alive mask, apply. It ranks each island by the fitness values its
// worker returned with the population (SegmentResponse.Fits, checked by
// checkSegment): the worker took them on its final States with
// RefreshFlowtime then Objective.Of, so they are bit-identical to a
// fresh Objective.Evaluate and nothing is re-evaluated here.
func (c *Coordinator) migrate(pops [][]schedule.Schedule, fits [][]float64, alive []bool) {
	island.ApplyMigration(pops, island.PlanMigration(fits, c.cfg.Migrants, alive))
}

// checkSegment rejects a segment reply the coordinator cannot use: a
// population that does not fill the mesh, an invalid schedule, fitness
// values that do not pair up with the population or are not finite, or
// an invalid best. Nothing downstream evaluates a returned schedule, so
// without this a buggy or hostile worker's out-of-range machine id would
// reach the migration ranking, the digests and the run's result.
func (c *Coordinator) checkSegment(in *etc.Instance, seg *transport.SegmentResponse) error {
	if cells := c.base.Width * c.base.Height; len(seg.Pop) != cells {
		return fmt.Errorf("population of %d, want %d", len(seg.Pop), cells)
	}
	if len(seg.Fits) != len(seg.Pop) {
		return fmt.Errorf("%d fitness values for %d individuals", len(seg.Fits), len(seg.Pop))
	}
	for k, s := range seg.Pop {
		if err := s.Validate(in); err != nil {
			return fmt.Errorf("individual %d: %w", k, err)
		}
		if f := seg.Fits[k]; math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("individual %d: fitness %v", k, f)
		}
	}
	if err := seg.Best.Validate(in); err != nil {
		return fmt.Errorf("best: %w", err)
	}
	return nil
}

// callSegment is one island's segment call under the retry policy, with
// supervision (restart-on-dead) folded into each attempt. A nil error
// guarantees a segment response that passed checkSegment. A non-nil
// error is final for the island: the worker is down past its restart
// budget, or the response was an application-level failure or a reply
// checkSegment rejected.
func (c *Coordinator) callSegment(ctx context.Context, in *etc.Instance, h *handle, req *transport.Request, round int) (*transport.Response, error) {
	p := c.cfg.Retry
	// De-synchronise retry storms across (worker, round) pairs while
	// keeping each stream seeded.
	p.Seed = p.Seed ^ uint64(h.idx)<<32 ^ uint64(round)
	var resp *transport.Response
	err := p.Do(ctx, func(attempt int) error {
		r, err := c.invoke(ctx, h, req)
		if err != nil {
			if errors.Is(err, errWorkerDown) {
				return retry.Permanent(err)
			}
			return err
		}
		if r.Err != "" {
			// The worker computed an answer: the request itself is bad.
			return retry.Permanent(fmt.Errorf("dist: worker %d: %s", h.idx, r.Err))
		}
		if r.Seg == nil {
			return retry.Permanent(fmt.Errorf("dist: worker %d: segment response missing body", h.idx))
		}
		if err := c.checkSegment(in, r.Seg); err != nil {
			return retry.Permanent(fmt.Errorf("dist: worker %d: bad segment reply: %w", h.idx, err))
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// invoke performs one attempt: restart the worker if it is marked dead,
// then make the RPC under the per-call timeout. Any transport failure
// marks the worker dead so the next attempt restarts it.
func (c *Coordinator) invoke(ctx context.Context, h *handle, req *transport.Request) (*transport.Response, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return nil, errWorkerDown
	}
	if h.dead {
		if err := c.restartLocked(h); err != nil {
			return nil, err
		}
	}
	resp, err := c.callLocked(ctx, h, req)
	if err != nil {
		c.markDeadLocked(h)
		return nil, err
	}
	// A full exchange after an outage: the worker is recovered.
	if !h.failedAt.IsZero() {
		c.statsMu.Lock()
		c.recoveries = append(c.recoveries, float64(time.Since(h.failedAt).Microseconds())/1000)
		c.statsMu.Unlock()
		h.failedAt = time.Time{}
	}
	return resp, nil
}

func (c *Coordinator) callLocked(ctx context.Context, h *handle, req *transport.Request) (*transport.Response, error) {
	r := *req
	r.ID = c.callID.Add(1)
	if c.timeout == 0 {
		return h.client.Call(ctx, &r)
	}
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	resp, err := h.client.Call(cctx, &r)
	if err == nil && cctx.Err() != nil && ctx.Err() == nil {
		// The reply outlived its deadline: an in-process segment the
		// deadline cut short is not the segment's answer.
		return nil, cctx.Err()
	}
	return resp, err
}

func (c *Coordinator) markDeadLocked(h *handle) {
	if !h.dead {
		h.dead = true
		if h.failedAt.IsZero() {
			h.failedAt = time.Now()
		}
		if h.client != nil {
			h.client.Close()
		}
	}
}

// restartLocked brings a dead worker back through the factory. Failures
// count against the consecutive-restart budget; exhausting it abandons
// the worker (h.down) — the graceful-degradation trigger.
func (c *Coordinator) restartLocked(h *handle) error {
	fail := func(reason error) error {
		h.restartFails++
		if h.restartFails >= c.cfg.maxRestarts() {
			h.down = true
			return errWorkerDown
		}
		return fmt.Errorf("%w: worker %d: %v", errRestartFailed, h.idx, reason)
	}
	cl, err := c.factory(h.idx)
	if err != nil {
		return fail(err)
	}
	h.client = cl
	h.dead = false
	h.restartFails = 0
	c.statsMu.Lock()
	c.restarts++
	c.statsMu.Unlock()
	return nil
}

// roundDigest folds one round's post-migration state — round index,
// alive mask, every alive island's population — into a hex digest. The
// sequence of digests is the trajectory the determinism contract pins:
// identical (seed, fault plan) must reproduce it bit for bit.
//
// Each island's bytes are staged in one buffer and hashed with one Write:
// a Write per machine id cost more than the hashing.
func roundDigest(round int, alive []bool, pops [][]schedule.Schedule) string {
	h := sha256.New()
	b := binary.LittleEndian.AppendUint64(nil, uint64(round))
	for i, pop := range pops {
		if !alive[i] {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		for _, s := range pop {
			for _, m := range s {
				b = binary.LittleEndian.AppendUint32(b, uint32(m))
			}
		}
		h.Write(b)
		b = b[:0]
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
