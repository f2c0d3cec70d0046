package gridcma

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gridcma/internal/etc"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Scheduler is the public face of every batch scheduling algorithm in the
// library. Run executes one search on in; it stops when the configured
// budget is exhausted or ctx is cancelled, whichever comes first, and a
// cancelled run still returns the best schedule found so far alongside
// ctx's error. Implementations must be safe for concurrent Run calls —
// the batch executor and the portfolio racer share one Scheduler value
// across goroutines.
type Scheduler interface {
	// Name identifies the algorithm in results and reports.
	Name() string
	// Run searches in within the options' budget. With no WithBudget
	// option and no context deadline, Run fails with ErrUnbounded rather
	// than looping forever.
	Run(ctx context.Context, in *Instance, opts ...RunOption) (Result, error)
}

// ErrUnbounded is returned by Run when neither a budget option nor a
// context deadline bounds the search.
var ErrUnbounded = errors.New("gridcma: unbounded run: pass WithBudget/WithMaxTime/WithMaxIterations or a context deadline")

// runSettings is the per-call state the RunOption set edits.
type runSettings struct {
	budget     Budget
	seed       uint64
	observer   Observer
	lambda     float64
	lambdaSet  bool
	workers    int
	workersSet bool
}

// newRunSettings applies opts, in order, over the defaults.
func newRunSettings(opts ...RunOption) runSettings {
	st := runSettings{seed: 1}
	for _, o := range opts {
		o(&st)
	}
	return st
}

// validate reports the first setting no engine accepts, for the
// scheduler called name: New checks its defaults with it, Run each
// call's merged options.
func (s *runSettings) validate(name string) error {
	if s.lambdaSet && (s.lambda < 0 || s.lambda > 1) {
		return fmt.Errorf("gridcma: %s: lambda %v outside [0,1]", name, s.lambda)
	}
	if s.workersSet && s.workers < 0 {
		return fmt.Errorf("gridcma: %s: negative workers %d", name, s.workers)
	}
	if s.budget.MaxTime < 0 || s.budget.MaxIterations < 0 {
		return fmt.Errorf("gridcma: %s: negative budget", name)
	}
	return nil
}

// RunOption configures one Run call. Options passed to New become the
// scheduler's defaults; options passed to Run override them call by call.
type RunOption func(*runSettings)

// WithBudget bounds the run with an explicit Budget.
func WithBudget(b Budget) RunOption { return func(s *runSettings) { s.budget = b } }

// WithMaxTime bounds the run by wall-clock time (the paper's protocol
// uses 90s).
func WithMaxTime(d time.Duration) RunOption {
	return func(s *runSettings) { s.budget.MaxTime = d }
}

// WithMaxIterations bounds the run by engine iterations — the
// deterministic budget tests and reproducible comparisons use.
func WithMaxIterations(n int) RunOption {
	return func(s *runSettings) { s.budget.MaxIterations = n }
}

// WithSeed sets the deterministic RNG seed (default 1). Equal seeds and
// equal iteration budgets reproduce a run exactly.
func WithSeed(seed uint64) RunOption { return func(s *runSettings) { s.seed = seed } }

// WithObserver streams progress samples from the running search: the
// best so far once before the first iteration, then once after every
// iteration. The island engine reports after every migration round.
func WithObserver(obs Observer) RunOption { return func(s *runSettings) { s.observer = obs } }

// WithLambda overrides the makespan weight of the scalarised objective
// fitness = λ·makespan + (1−λ)·mean_flowtime (default DefaultLambda,
// 0.75).
func WithLambda(lambda float64) RunOption {
	return func(s *runSettings) { s.lambda, s.lambdaSet = lambda, true }
}

// WithWorkers sets the number of goroutines an engine may use to evaluate
// offspring. For the cellular schedulers any n >= 1 selects the
// partitioned parallel engine, whose results depend only on the seed —
// never on n — so a run is reproducible across machines with different
// core counts; n = 0 restores the engine's configured default. Engines
// without a parallel evaluation path ignore the option.
func WithWorkers(n int) RunOption {
	return func(s *runSettings) {
		if n == 0 {
			// Restore the engine's configured default, undoing any earlier
			// WithWorkers in the merged option list.
			s.workers, s.workersSet = 0, false
			return
		}
		s.workers, s.workersSet = n, true
	}
}

// engineRunner is the internal positional contract every engine
// implements; context rides inside the Budget.
type engineRunner interface {
	Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result
}

// buildParams carries the construction-affecting Run options to an engine
// builder: the λ override and the worker-count override.
type buildParams struct {
	lambdaSet  bool
	lambda     float64
	workersSet bool
	workers    int
}

// engineScheduler adapts an internal engine to the public Scheduler
// interface. build constructs the engine for the given option overrides,
// so WithLambda and WithWorkers rewire the engine without the caller
// touching engine configs. (Construction-time defaults are layered on by
// the registry's withDefaults wrapper, not here.)
type engineScheduler struct {
	name  string
	build func(buildParams) (engineRunner, error)
}

// newEngineScheduler validates the default construction eagerly so
// configuration errors surface at New time, not at first Run.
func newEngineScheduler(name string, build func(buildParams) (engineRunner, error)) (Scheduler, error) {
	if _, err := build(buildParams{}); err != nil {
		return nil, err
	}
	return &engineScheduler{name: name, build: build}, nil
}

func (s *engineScheduler) Name() string { return s.name }

func (s *engineScheduler) Run(ctx context.Context, in *Instance, opts ...RunOption) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in == nil {
		return Result{}, fmt.Errorf("gridcma: %s: nil instance", s.name)
	}
	st := newRunSettings(opts...)
	if err := st.validate(s.name); err != nil {
		return Result{}, err
	}
	b := st.budget
	// A budget passed via WithBudget may carry its own context
	// (Budget.WithContext); honour it alongside the Run context rather
	// than overwriting it.
	bctx := b.Context()
	if bctx != context.Background() && bctx != ctx {
		if ctx == context.Background() {
			ctx = bctx
		} else {
			merged, cancel := context.WithCancel(ctx)
			defer cancel()
			stop := context.AfterFunc(bctx, cancel)
			defer stop()
			ctx = merged
		}
	}
	if b.MaxTime == 0 && b.MaxIterations == 0 {
		// The engines insist on an explicit bound; mirror a deadline
		// from either context into the time budget (cancellation still
		// fires first if the caller's clock disagrees).
		dl, ok := ctx.Deadline()
		if !ok {
			dl, ok = bctx.Deadline()
		}
		if !ok {
			return Result{}, ErrUnbounded
		}
		b.MaxTime = time.Until(dl)
		if b.MaxTime <= 0 {
			return Result{}, context.DeadlineExceeded
		}
	}
	eng, err := s.build(buildParams{
		lambdaSet: st.lambdaSet, lambda: st.lambda,
		workersSet: st.workersSet, workers: st.workers,
	})
	if err != nil {
		return Result{}, err
	}
	res := eng.Run(in, b.WithContext(ctx), st.seed, st.observer)
	return res, ctx.Err()
}

// objectiveFor resolves a λ override against a config's default.
func objectiveFor(lambdaSet bool, lambda float64, def schedule.Objective) schedule.Objective {
	if lambdaSet {
		return schedule.Objective{Lambda: lambda}
	}
	return def
}
