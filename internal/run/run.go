// Package run holds the small vocabulary shared by every metaheuristic in
// the library: termination budgets, run results and progress observers.
// Keeping these types in one leaf package lets the cMA, the baseline GAs,
// simulated annealing and tabu search expose one uniform Run signature
// that the experiment harness and the dynamic grid simulator can drive
// interchangeably. Loop is the one budget loop those engines share: it
// decides when a run stops, when progress is reported and what a Result
// carries.
package run

import (
	"context"
	"time"

	"gridcma/internal/evalpool"
	"gridcma/internal/schedule"
)

// Budget bounds a run. A zero field means "unlimited"; at least one bound
// must be set or the run would never terminate. A Budget optionally
// carries a context (WithContext): every engine loop polls it alongside
// the time and iteration bounds, so cancelling the context stops any run
// within one budget check.
type Budget struct {
	// MaxTime stops the run after a wall-clock duration. The paper uses
	// 90 s (Table 1).
	MaxTime time.Duration
	// MaxIterations stops after this many engine iterations (generations
	// for the GAs, update sweeps for the cMA, proposals for SA/TS).
	MaxIterations int

	// ctx, when non-nil, cancels the run early. It rides inside the
	// Budget so the positional engine signature stays unchanged while
	// every termination check becomes context-aware.
	ctx context.Context
}

// WithContext returns a copy of b that also terminates when ctx is done.
func (b Budget) WithContext(ctx context.Context) Budget {
	b.ctx = ctx
	return b
}

// Context returns the budget's context, or context.Background when none
// was attached.
func (b Budget) Context() context.Context {
	if b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Bounded reports whether the run is guaranteed to terminate: at least
// one explicit bound is set, or the attached context has a deadline.
func (b Budget) Bounded() bool {
	if b.MaxTime > 0 || b.MaxIterations > 0 {
		return true
	}
	if b.ctx != nil {
		if _, ok := b.ctx.Deadline(); ok {
			return true
		}
	}
	return false
}

// Cancelled reports whether the attached context has been cancelled.
// Engines with expensive iterations poll it inside their update loops so
// cancellation latency is one update, not one full iteration; it never
// fires on time or iteration bounds, so the normal deterministic path is
// untouched.
func (b Budget) Cancelled() bool {
	if b.ctx == nil {
		return false
	}
	select {
	case <-b.ctx.Done():
		return true
	default:
		return false
	}
}

// Done reports whether the budget is exhausted at the given iteration
// count and start time, or the attached context has been cancelled.
func (b Budget) Done(iter int, start time.Time) bool {
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			return true
		default:
		}
	}
	if b.MaxIterations > 0 && iter >= b.MaxIterations {
		return true
	}
	if b.MaxTime > 0 && time.Since(start) >= b.MaxTime {
		return true
	}
	return false
}

// Progress is one observation of a running search.
type Progress struct {
	Elapsed   time.Duration
	Iteration int
	// Best-so-far values of the scalarised fitness and both objectives.
	Fitness  float64
	Makespan float64
	Flowtime float64
}

// Observer receives progress samples: once before the first iteration,
// then once after every iteration. A nil Observer is legal everywhere and
// means "don't observe". Observers are called from the search goroutine;
// they must be fast.
type Observer func(Progress)

// Result is the outcome of one metaheuristic run.
type Result struct {
	Best       schedule.Schedule // best schedule found
	Fitness    float64           // scalarised fitness of Best
	Makespan   float64
	Flowtime   float64
	Iterations int           // iterations actually executed
	Evals      int64         // full fitness evaluations performed
	Elapsed    time.Duration // wall-clock time consumed
	Algorithm  string        // name of the producing algorithm
}

// Better reports whether r improves on other (lower fitness wins; an empty
// result — no Best yet — always loses).
func (r Result) Better(other Result) bool {
	if r.Best == nil {
		return false
	}
	if other.Best == nil {
		return true
	}
	return r.Fitness < other.Fitness
}

// Loop runs step until budget is done, passing the iteration index
// 0, 1, 2, …, and returns the run's Result. The clock starts when Loop
// is called, so an engine calls it after building its initial
// population. If obs is set, it reports best once before the first
// iteration and again after every one. The Result carries best's
// schedule, fitness, makespan and flowtime, the iterations run and the
// time elapsed; the caller sets Evals and Algorithm.
func Loop(budget Budget, obs Observer, best *evalpool.Best, step func(iter int)) Result {
	start := time.Now()
	iter := 0
	report := func() {
		if obs != nil {
			obs(Progress{Elapsed: time.Since(start), Iteration: iter,
				Fitness: best.Fitness(), Makespan: best.Makespan(), Flowtime: best.Flowtime()})
		}
	}
	report()
	for !budget.Done(iter, start) {
		step(iter)
		iter++
		report()
	}
	return Result{
		Best: best.Schedule(), Fitness: best.Fitness(), Makespan: best.Makespan(), Flowtime: best.Flowtime(),
		Iterations: iter, Elapsed: time.Since(start),
	}
}
