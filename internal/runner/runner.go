// Package runner executes fleets of metaheuristic runs: a deterministic
// worker-pool batch executor fanning out instances × schedulers × seeds,
// and a portfolio racer that runs several schedulers on one instance
// concurrently and cancels the losers as soon as one finishes.
//
// Batch results are deterministic for a fixed seed regardless of the
// worker count: tasks are enumerated in a fixed order, every task gets a
// seed derived only from its coordinates (not from scheduling), and each
// engine is itself deterministic in its seed when iteration-bounded.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gridcma/internal/etc"
	"gridcma/internal/run"
)

// Scheduler is the uniform engine contract shared by every metaheuristic
// in the library (cMA, the GAs, SA, tabu search, the island model).
// Cancellation arrives through the context attached to the Budget.
type Scheduler interface {
	Name() string
	Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result
}

// Instance pairs a problem instance with the name batch results report.
type Instance struct {
	Name string
	In   *etc.Instance
}

// BatchSpec describes one batch: the cartesian product of Schedulers ×
// Instances × repeats, each run within Budget.
type BatchSpec struct {
	Instances  []Instance
	Schedulers []Scheduler
	// Budget bounds every individual run.
	Budget run.Budget

	// Seeds, when non-empty, are used verbatim for the repeats of every
	// (scheduler, instance) pair — the mode the experiment harness uses
	// to reproduce the paper's seed ladder. When empty, Repeats runs are
	// made per pair with seeds derived from BaseSeed and the task
	// coordinates, so every task in the batch draws from an independent
	// stream.
	Seeds    []uint64
	Repeats  int
	BaseSeed uint64

	// Workers caps concurrent runs; 0 means GOMAXPROCS.
	Workers int
}

// Validate reports the first specification error.
func (s BatchSpec) Validate() error {
	switch {
	case len(s.Instances) == 0:
		return fmt.Errorf("runner: no instances")
	case len(s.Schedulers) == 0:
		return fmt.Errorf("runner: no schedulers")
	case !s.Budget.Bounded():
		return fmt.Errorf("runner: unbounded budget")
	case len(s.Seeds) == 0 && s.Repeats < 1:
		return fmt.Errorf("runner: need Seeds or Repeats >= 1")
	}
	for i, in := range s.Instances {
		if in.In == nil {
			return fmt.Errorf("runner: nil instance at %d", i)
		}
	}
	for i, sc := range s.Schedulers {
		if sc == nil {
			return fmt.Errorf("runner: nil scheduler at %d", i)
		}
	}
	return nil
}

// repeats returns how many runs each (scheduler, instance) pair gets.
func (s BatchSpec) repeats() int {
	if len(s.Seeds) > 0 {
		return len(s.Seeds)
	}
	return s.Repeats
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
	Result         run.Result
}

// TaskSeed derives the deterministic seed of the task at coordinates
// (scheduler, instance, repeat) from base. Distinct coordinates yield
// independent splitmix64-style streams.
func TaskSeed(base uint64, scheduler, instance, repeat int) uint64 {
	x := base ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{uint64(scheduler) + 1, uint64(instance) + 1, uint64(repeat) + 1} {
		x += v * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// RunBatch fans the batch out across a worker pool and returns every
// result in a fixed order (scheduler-major, then instance, then repeat).
// The output is identical for any worker count.
//
// Cancelling ctx stops the batch early: running tasks terminate at their
// next budget check, unstarted tasks never start, and RunBatch returns
// the completed prefix-set of results (unrun slots are dropped) together
// with ctx.Err().
func RunBatch(ctx context.Context, spec BatchSpec) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Attach ctx before validating: a context deadline alone is a
	// legitimate bound, same as for a single Scheduler.Run.
	spec.Budget = spec.Budget.WithContext(ctx)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reps := spec.repeats()
	total := len(spec.Schedulers) * len(spec.Instances) * reps
	results := make([]BatchResult, total)
	done := make([]bool, total)

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	budget := spec.Budget
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= total || ctx.Err() != nil {
					return
				}
				si := k / (len(spec.Instances) * reps)
				ii := k / reps % len(spec.Instances)
				ri := k % reps
				seed := spec.BaseSeed
				if len(spec.Seeds) > 0 {
					seed = spec.Seeds[ri]
				} else {
					seed = TaskSeed(spec.BaseSeed, si, ii, ri)
				}
				sched := spec.Schedulers[si]
				inst := spec.Instances[ii]
				res := sched.Run(inst.In, budget, seed, nil)
				results[k] = BatchResult{
					Instance:       inst.Name,
					Algorithm:      sched.Name(),
					SchedulerIndex: si,
					InstanceIndex:  ii,
					RepeatIndex:    ri,
					Seed:           seed,
					Result:         res,
				}
				done[k] = true
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
	return results, nil
}
