package gridcma

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gridcma/internal/etc"
	"gridcma/internal/run"
	"gridcma/internal/runner"
)

// BatchSpec describes a batch of runs: every algorithm on every instance,
// repeated with deterministic per-task seeds — the shape of the paper's
// whole evaluation section (k algorithms × 12 Braun instances × n seeds).
type BatchSpec struct {
	// Instances to schedule; each must carry a Name for the results.
	Instances []*Instance
	// Algorithms to run; mix registry-built and custom Schedulers freely.
	Algorithms []Scheduler
	// Budget bounds every individual run.
	Budget Budget
	// Seeds, when non-empty, are reused verbatim for every (algorithm,
	// instance) pair. When empty, Repeats runs per pair get seeds derived
	// from BaseSeed and the task coordinates.
	Seeds    []uint64
	Repeats  int
	BaseSeed uint64
	// Workers caps concurrent runs; 0 means GOMAXPROCS.
	Workers int
}

// BatchResult is one completed run of a batch.
type BatchResult = runner.BatchResult

// RaceOutcome reports a portfolio race: the winning result plus what
// every contender had found when the race was called.
type RaceOutcome struct {
	// Best is the best result across the portfolio.
	Best Result
	// Winner is Best's index into the racing algorithms.
	Winner int
	// Results is index-aligned with the algorithms argument; cancelled
	// losers report their best-so-far.
	Results []Result
}

// RunBatch executes the batch on a worker pool and returns the results in
// a fixed order (algorithm-major, then instance, then repeat). Seeds
// depend only on task coordinates, never on goroutine scheduling, so
// with an iteration-bounded Budget the output is identical for any
// Workers value. Wall-clock (MaxTime) budgets are inherently
// machine- and load-dependent — concurrent runs share the CPU — so for
// comparable time-budgeted rankings set Workers to 1. Cancelling ctx
// stops the batch early and returns the completed results with ctx.Err().
func RunBatch(ctx context.Context, spec BatchSpec) ([]BatchResult, error) {
	var errs errCollector
	inner := runner.BatchSpec{
		Budget:   spec.Budget,
		Seeds:    spec.Seeds,
		Repeats:  spec.Repeats,
		BaseSeed: spec.BaseSeed,
		Workers:  spec.Workers,
	}
	for _, in := range spec.Instances {
		if in == nil {
			return nil, fmt.Errorf("gridcma: nil instance in batch")
		}
		inner.Instances = append(inner.Instances, runner.Instance{Name: in.Name, In: in})
	}
	for _, a := range spec.Algorithms {
		if a == nil {
			return nil, fmt.Errorf("gridcma: nil algorithm in batch")
		}
		inner.Schedulers = append(inner.Schedulers, publicShim{s: a, errs: &errs})
	}
	results, err := runner.RunBatch(ctx, inner)
	if err == nil {
		err = errs.first()
	}
	return results, err
}

// Race runs every algorithm on in concurrently and cancels the losers as
// soon as the first finishes its budget, so a portfolio never waits out
// its slowest member. Every option applies to every contender — budget,
// seed base, λ override; an observer too, though it then streams from
// all contenders concurrently and must be safe for that.
func Race(ctx context.Context, in *Instance, algorithms []Scheduler, opts ...RunOption) (RaceOutcome, error) {
	var errs errCollector
	st := newRunSettings()
	for _, o := range opts {
		o(&st)
	}
	scheds := make([]runner.Scheduler, len(algorithms))
	for i, a := range algorithms {
		if a == nil {
			return RaceOutcome{}, fmt.Errorf("gridcma: nil algorithm in portfolio")
		}
		scheds[i] = publicShim{s: a, opts: opts, errs: &errs}
	}
	out, err := runner.Race(ctx, in, scheds, st.budget, st.seed)
	if err == nil {
		err = errs.first()
	}
	// On outer-context cancellation the partial outcome is still
	// returned alongside ctx's error — best-so-far is the whole point
	// of a race with a deadline.
	return RaceOutcome{Best: out.Best, Winner: out.Winner, Results: out.Results}, err
}

// publicShim adapts a public Scheduler to the internal positional engine
// contract the batch tooling drives, restoring the budget's context as
// the Run context so cancellation crosses the boundary intact. Caller
// options (λ overrides etc.) are applied first; the task's budget and
// seed then override, since the fan-out owns those. Non-cancellation
// errors are collected rather than dropped — a failing scheduler must
// surface as an error, not as a silent zero-value result row.
type publicShim struct {
	s    Scheduler
	opts []RunOption
	errs *errCollector
}

func (p publicShim) Name() string { return p.s.Name() }

func (p publicShim) Run(in *etc.Instance, b run.Budget, seed uint64, obs run.Observer) run.Result {
	res, err := p.s.Run(b.Context(), in, p.merged(b, seed, obs)...)
	p.errs.note(err)
	return res
}

func (p publicShim) merged(b run.Budget, seed uint64, obs run.Observer) []RunOption {
	merged := make([]RunOption, 0, len(p.opts)+3)
	merged = append(merged, p.opts...)
	merged = append(merged, WithBudget(b), WithSeed(seed))
	if obs != nil {
		merged = append(merged, WithObserver(obs))
	}
	return merged
}

// errCollector keeps the first non-cancellation error seen across a
// fan-out. Cancellation is the fan-out's own signal (returned as the
// context's error by RunBatch/Race), not a scheduler failure.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (c *errCollector) note(err error) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *errCollector) first() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
