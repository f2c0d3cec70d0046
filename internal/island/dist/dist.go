// Package dist lifts the island model across process boundaries: a
// coordinator drives segment/migration rounds against supervised workers
// reached over a pluggable transport (internal/transport), while keeping
// the in-process scheduler's determinism contract — a failure-free run
// is bit-identical to internal/island for any transport and worker
// count, and a faulted run is a pure function of (seed, fault plan).
//
// The design choice everything else follows from: workers are stateless
// and the coordinator owns every island's population. A segment RPC is a
// pure function (instance, config, seed, iterations, population) →
// (result, evolved population), so the coordinator's copy of the
// population *is* the checkpoint — retrying a timed-out call, delivering
// it twice, or re-sending it to a freshly restarted worker are all
// harmless by construction. Supervision is then simple: per-call
// timeouts with jittered exponential retry (internal/retry), heartbeat
// pings for liveness, lazy warm restarts through a worker factory, and
// when a worker stays dead past its restart budget, its islands are
// declared lost, the migration ring heals around them
// (island.PlanMigration with the alive mask), and the run completes on
// the survivors instead of hanging the barrier.
package dist

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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
	// Heartbeat enables liveness pings at this period (0 = disabled).
	// Heartbeats only accelerate failure detection; they never change a
	// trajectory.
	Heartbeat time.Duration
	// HeartbeatTimeout bounds each ping (0 = CallTimeout).
	HeartbeatTimeout time.Duration
	// CheckpointPath, when set, persists coordinator state (populations,
	// alive set, best, digests) after every round with the WAL/snapshot
	// atomic-rename idiom, and Run resumes from a matching checkpoint.
	CheckpointPath string
	// Logf receives supervision diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) callTimeout() time.Duration {
	if c.CallTimeout <= 0 {
		return 30 * time.Second
	}
	return c.CallTimeout
}

func (c Config) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout <= 0 {
		return c.callTimeout()
	}
	return c.HeartbeatTimeout
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
// TCP it redials the worker's address. A restart is "warm" for free:
// workers hold no state, the coordinator re-sends populations.
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

	Restarts        int       `json:"restarts"`
	HeartbeatMisses int       `json:"heartbeat_misses"`
	RoundMs         []float64 `json:"round_ms"`
	RecoveryMs      []float64 `json:"recovery_ms,omitempty"`
}

// handle supervises one worker: its live client, liveness flags and
// restart budget. The mutex serialises every RPC to the worker (segment
// calls from its pinned islands, restarts, heartbeats).
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
	factory WorkerFactory
	chaos   *ChaosPlan

	workers []*handle
	callID  atomic.Uint64
	round   atomic.Int64 // current round, for heartbeat fault keying

	statsMu    sync.Mutex
	restarts   int
	hbMisses   int
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
	c := &Coordinator{cfg: cfg, base: base, factory: factory}
	for w := 0; w < cfg.Workers; w++ {
		cl, err := factory(w)
		if err != nil {
			c.closeAll()
			return nil, fmt.Errorf("dist: start worker %d: %w", w, err)
		}
		c.workers = append(c.workers, &handle{idx: w, client: cl})
	}
	return c, nil
}

// SetChaos installs a fault plan (the chaos torture only).
func (c *Coordinator) SetChaos(p *ChaosPlan) { c.chaos = p }

// Close releases every worker client.
func (c *Coordinator) Close() { c.closeAll() }

func (c *Coordinator) closeAll() {
	for _, h := range c.workers {
		h.mu.Lock()
		if h.client != nil {
			h.client.Close()
		}
		h.mu.Unlock()
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Errors the supervision stack distinguishes.
var (
	errWorkerDown    = errors.New("dist: worker permanently down")
	errInjectedDrop  = errors.New("dist: injected message drop")
	errInjectedKill  = errors.New("dist: injected worker kill")
	errRestartFailed = errors.New("dist: worker restart failed")
)

// Run executes the distributed island model. The budget must be
// iteration-based (MaxIterations > 0, MaxTime unset): wall-clock budgets
// cannot be deterministic across transports, and determinism is the
// contract. The context inside budget aborts the run.
func (c *Coordinator) Run(in *etc.Instance, budget run.Budget, seed uint64) (run.Result, *Report, error) {
	if budget.MaxIterations <= 0 || budget.MaxTime > 0 {
		return run.Result{}, nil, errors.New("dist: budget must be MaxIterations-only (the determinism contract excludes wall-clock budgets)")
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

	// Resume from a checkpoint when one matches this run.
	if cp, ok := c.loadCheckpoint(seed); ok {
		pops, alive = cp.pops(), cp.Alive
		totalIters, totalEvals = cp.TotalIters, cp.TotalEvals
		best = cp.best()
		rep.Digests = cp.Digests
		rep.Deaths = cp.Deaths
		rep.Rounds = cp.Round
		c.round.Store(int64(cp.Round))
		c.logf("dist: resumed from checkpoint at round %d (iters %d)", cp.Round, totalIters)
	}

	// Heartbeats: detection only — a missed ping marks the worker dead so
	// the next segment call restarts it first.
	var hbWG sync.WaitGroup
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer func() {
		hbCancel()
		hbWG.Wait()
	}()
	if c.cfg.Heartbeat > 0 {
		for _, h := range c.workers {
			hbWG.Add(1)
			go c.heartbeatLoop(hbCtx, h, &hbWG)
		}
	}

	results := make([]*transport.Response, n)
	fails := make([]error, n)

	for totalIters < budget.MaxIterations {
		if err := ctx.Err(); err != nil {
			return run.Result{}, rep, err
		}
		round := rep.Rounds
		c.round.Store(int64(round))
		segIters := c.cfg.MigrationEvery
		if totalIters+segIters > budget.MaxIterations {
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
						Pop:      pops[i],
					},
				}
				results[i], fails[i] = c.callSegment(ctx, c.workers[i%c.cfg.Workers], req, round)
			}(i)
		}
		wg.Wait()
		rep.RoundMs = append(rep.RoundMs, float64(time.Since(roundStart).Microseconds())/1000)

		if err := ctx.Err(); err != nil {
			return run.Result{}, rep, err
		}
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			if fails[i] != nil {
				alive[i] = false
				rep.Deaths = append(rep.Deaths, Death{Island: i, Round: round, Reason: fails[i].Error()})
				c.logf("dist: island %d lost in round %d: %v (ring heals around it)", i, round, fails[i])
				continue
			}
			seg := results[i].Seg
			pops[i] = seg.Pop
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
		if !anyAlive(alive) {
			return run.Result{}, rep, errors.New("dist: every island lost its worker")
		}
		totalIters += segIters
		c.migrate(in, pops, alive)
		rep.Rounds = round + 1
		rep.Digests = append(rep.Digests, roundDigest(round, alive, pops))
		if c.cfg.CheckpointPath != "" {
			if err := c.saveCheckpoint(seed, rep, pops, alive, best, totalIters, totalEvals); err != nil {
				c.logf("dist: checkpoint: %v", err)
			}
		}
	}

	for i := 0; i < n; i++ {
		if alive[i] {
			rep.Survivors = append(rep.Survivors, i)
		}
	}
	c.statsMu.Lock()
	rep.Restarts = c.restarts
	rep.HeartbeatMisses = c.hbMisses
	rep.RecoveryMs = append([]float64(nil), c.recoveries...)
	c.statsMu.Unlock()

	best.Iterations = totalIters
	best.Evals = totalEvals
	best.Elapsed = time.Since(start)
	best.Algorithm = fmt.Sprintf("DistIslandCMA(%d/%d)", n, c.cfg.Workers)
	return best, rep, nil
}

func anyAlive(alive []bool) bool {
	for _, a := range alive {
		if a {
			return true
		}
	}
	return false
}

// migrate reproduces the in-process exchange over the alive ring: rank
// with the objective's fresh evaluation (bit-identical to the island
// scheduler's refreshed states), plan over the alive mask, apply.
func (c *Coordinator) migrate(in *etc.Instance, pops [][]schedule.Schedule, alive []bool) {
	o := c.base.Objective
	fits := make([][]float64, len(pops))
	for i, pop := range pops {
		if !alive[i] || pop == nil {
			continue
		}
		f := make([]float64, len(pop))
		for k, sched := range pop {
			f[k] = o.Evaluate(in, sched)
		}
		fits[i] = f
	}
	island.ApplyMigration(pops, island.PlanMigration(fits, c.cfg.Migrants, alive))
}

// callSegment is one island's segment call under the retry policy, with
// supervision (restart-on-dead) folded into each attempt. A nil error
// guarantees a segment response. A non-nil error is final for the
// island: the worker is down past its restart budget, or the response
// was an application-level failure.
func (c *Coordinator) callSegment(ctx context.Context, h *handle, req *transport.Request, round int) (*transport.Response, error) {
	p := c.cfg.Retry
	// De-synchronise retry storms across (worker, round) pairs while
	// keeping each stream seeded.
	p.Seed = p.Seed ^ uint64(h.idx)<<32 ^ uint64(round)
	var resp *transport.Response
	err := p.Do(ctx, func(attempt int) error {
		r, err := c.invoke(ctx, h, req, round)
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
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// invoke performs one attempt: restart the worker if it is marked dead,
// consult the fault plan, then make the RPC under the per-call timeout.
// Any transport failure marks the worker dead so the next attempt
// restarts it.
func (c *Coordinator) invoke(ctx context.Context, h *handle, req *transport.Request, round int) (*transport.Response, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return nil, errWorkerDown
	}
	if h.dead {
		if err := c.restartLocked(h, round); err != nil {
			return nil, err
		}
	}
	if c.chaos != nil {
		act, count := c.chaos.next(h.idx, round)
		switch act {
		case actDrop:
			return nil, errInjectedDrop
		case actKill:
			c.markDeadLocked(h)
			return nil, errInjectedKill
		case actDelay:
			d := time.Duration(count) * c.chaos.delayUnit
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		case actDup:
			// Deliver twice; keep the second reply. Stateless workers make
			// the duplicate invisible — which is exactly what the torture
			// asserts.
			if _, err := c.callLocked(ctx, h, req); err != nil {
				c.markDeadLocked(h)
				return nil, err
			}
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
	cctx, cancel := context.WithTimeout(ctx, c.cfg.callTimeout())
	defer cancel()
	return h.client.Call(cctx, &r)
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
func (c *Coordinator) restartLocked(h *handle, round int) error {
	fail := func(reason error) error {
		h.restartFails++
		if h.restartFails >= c.cfg.maxRestarts() {
			h.down = true
			c.logf("dist: worker %d abandoned after %d failed restarts", h.idx, h.restartFails)
			return errWorkerDown
		}
		return fmt.Errorf("%w: worker %d: %v", errRestartFailed, h.idx, reason)
	}
	if c.chaos != nil && !c.chaos.allowRestart(h.idx, round) {
		return fail(errors.New("injected permanent death"))
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
	c.logf("dist: worker %d restarted (warm: coordinator re-sends populations)", h.idx)
	return nil
}

// heartbeatLoop pings one worker at the configured period. TryLock keeps
// pings from queueing behind a long segment call (a worker busy serving
// us is alive by definition); a failed ping marks the worker dead so the
// next segment call restarts it before dispatching.
func (c *Coordinator) heartbeatLoop(ctx context.Context, h *handle, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if !h.mu.TryLock() {
			continue
		}
		if h.down || h.dead {
			h.mu.Unlock()
			continue
		}
		req := &transport.Request{ID: c.callID.Add(1), Kind: transport.KindPing}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.heartbeatTimeout())
		_, err := h.client.Call(cctx, req)
		cancel()
		if err != nil && ctx.Err() == nil {
			c.markDeadLocked(h)
			c.statsMu.Lock()
			c.hbMisses++
			c.statsMu.Unlock()
			c.logf("dist: worker %d failed heartbeat: %v", h.idx, err)
		}
		h.mu.Unlock()
	}
}

// roundDigest folds one round's post-migration state — round index,
// alive mask, every alive island's population — into a hex digest. The
// sequence of digests is the trajectory the determinism contract pins:
// identical (seed, fault plan) must reproduce it bit for bit.
func roundDigest(round int, alive []bool, pops [][]schedule.Schedule) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(round))
	h.Write(b[:])
	for i, pop := range pops {
		if alive[i] {
			h.Write([]byte{1})
			for _, s := range pop {
				for _, m := range s {
					binary.LittleEndian.PutUint32(b[:4], uint32(m))
					h.Write(b[:4])
				}
			}
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
