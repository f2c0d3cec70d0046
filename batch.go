package gridcma

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// validate reports the first specification error; budget is the spec's
// budget with the batch context attached, since a context deadline alone
// is a legitimate bound.
func (s BatchSpec) validate(budget Budget) error {
	for _, in := range s.Instances {
		if in == nil {
			return fmt.Errorf("gridcma: nil instance in batch")
		}
	}
	for _, a := range s.Algorithms {
		if a == nil {
			return fmt.Errorf("gridcma: nil algorithm in batch")
		}
	}
	switch {
	case len(s.Instances) == 0:
		return fmt.Errorf("gridcma: no instances")
	case len(s.Algorithms) == 0:
		return fmt.Errorf("gridcma: no algorithms")
	case !budget.Bounded():
		return fmt.Errorf("gridcma: unbounded budget")
	case len(s.Seeds) == 0 && s.Repeats < 1:
		return fmt.Errorf("gridcma: need Seeds or Repeats >= 1")
	}
	return nil
}

// BatchResult is one completed run of a batch.
type BatchResult struct {
	Instance  string
	Algorithm string
	// SchedulerIndex / InstanceIndex / RepeatIndex locate the task in
	// the spec's cartesian product.
	SchedulerIndex int
	InstanceIndex  int
	RepeatIndex    int
	Seed           uint64
	Result         Result
}

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

// taskSeed derives the deterministic seed of the task at coordinates
// (algorithm, instance, repeat) from base. Distinct coordinates yield
// independent splitmix64-style streams.
func taskSeed(base uint64, algorithm, instance, repeat int) uint64 {
	x := base ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{uint64(algorithm) + 1, uint64(instance) + 1, uint64(repeat) + 1} {
		x += v * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// RunBatch executes the batch on a worker pool and returns the results in
// a fixed order (algorithm-major, then instance, then repeat). Seeds
// depend only on task coordinates, never on goroutine scheduling, so
// with an iteration-bounded Budget the output is identical for any
// Workers value. Wall-clock (MaxTime) budgets are inherently
// machine- and load-dependent — concurrent runs share the CPU — so for
// comparable time-budgeted rankings set Workers to 1. Cancelling ctx
// stops the batch early: running tasks stop at their next budget check,
// unstarted tasks never start, and RunBatch returns the completed
// results with ctx.Err(). Otherwise the first error a run reports, in
// task order, fails the batch.
func RunBatch(ctx context.Context, spec BatchSpec) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	budget := spec.Budget.WithContext(ctx)
	if err := spec.validate(budget); err != nil {
		return nil, err
	}
	reps := len(spec.Seeds)
	if reps == 0 {
		reps = spec.Repeats
	}
	total := len(spec.Algorithms) * len(spec.Instances) * reps
	results := make([]BatchResult, total)
	errs := make([]error, total)
	done := make([]bool, total)

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, total)

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= total || ctx.Err() != nil {
					return
				}
				ai := k / (len(spec.Instances) * reps)
				ii := k / reps % len(spec.Instances)
				ri := k % reps
				var seed uint64
				if len(spec.Seeds) > 0 {
					seed = spec.Seeds[ri]
				} else {
					seed = taskSeed(spec.BaseSeed, ai, ii, ri)
				}
				a, in := spec.Algorithms[ai], spec.Instances[ii]
				res, err := a.Run(ctx, in, WithBudget(budget), WithSeed(seed))
				results[k] = BatchResult{
					Instance:       in.Name,
					Algorithm:      a.Name(),
					SchedulerIndex: ai,
					InstanceIndex:  ii,
					RepeatIndex:    ri,
					Seed:           seed,
					Result:         res,
				}
				errs[k], done[k] = err, true
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		completed := results[:0]
		for k, ok := range done {
			if ok {
				completed = append(completed, results[k])
			}
		}
		return completed, err
	}
	return results, firstFailure(errs)
}

// Race runs every algorithm on in concurrently and cancels the losers as
// soon as the first finishes its budget, so a portfolio never waits out
// its slowest member. Every option applies to every contender — budget,
// seed base, λ override; an observer too, though it then streams from
// all contenders concurrently and must be safe for that. Contender i
// runs with the seed derived from the seed option at coordinates
// (i, 0, 0). The best result across the portfolio, finished or
// interrupted, wins; ties go to the earliest contender.
func Race(ctx context.Context, in *Instance, algorithms []Scheduler, opts ...RunOption) (RaceOutcome, error) {
	for _, a := range algorithms {
		if a == nil {
			return RaceOutcome{}, fmt.Errorf("gridcma: nil algorithm in portfolio")
		}
	}
	if len(algorithms) == 0 {
		return RaceOutcome{}, fmt.Errorf("gridcma: empty portfolio")
	}
	if in == nil {
		return RaceOutcome{}, fmt.Errorf("gridcma: nil instance")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := newRunSettings(opts...)
	// A context deadline alone is a legitimate bound, same as for a
	// single Run.
	if !st.budget.WithContext(ctx).Bounded() {
		return RaceOutcome{}, fmt.Errorf("gridcma: unbounded budget")
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(algorithms))
	errs := make([]error, len(algorithms))
	var wg sync.WaitGroup
	wg.Add(len(algorithms))
	for i, a := range algorithms {
		go func() {
			defer wg.Done()
			results[i], errs[i] = a.Run(raceCtx, in, append(slices.Clip(opts),
				WithBudget(st.budget.WithContext(raceCtx)), WithSeed(taskSeed(st.seed, i, 0, 0)))...)
			cancel() // first finisher ends the race; losers stop at their next check
		}()
	}
	wg.Wait()

	out := RaceOutcome{Results: results}
	for i, r := range results {
		if i == 0 || r.Better(out.Best) {
			out.Best = r
			out.Winner = i
		}
	}
	// On outer-context cancellation the partial outcome is still
	// returned alongside ctx's error — best-so-far is the whole point
	// of a race with a deadline.
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, firstFailure(errs)
}

// firstFailure returns the first error that is not a cancellation.
// Cancellation is the fan-out's own signal (RunBatch and Race return the
// context's error for it), not a scheduler failure, and a failing
// scheduler must surface as an error, not as a silent zero-value result.
func firstFailure(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return nil
}
