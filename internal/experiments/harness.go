package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gridcma"
	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/ga"
	"gridcma/internal/run"
	"gridcma/internal/stats"
)

// Algorithm is the uniform face of every metaheuristic in the library:
// the public Scheduler, built by name with gridcma.New.
type Algorithm = gridcma.Scheduler

// Options scales an experiment. The paper's protocol (90 s × 10 runs per
// instance) is Full(); tests and benches use much smaller budgets — the
// shapes the runners check are budget-robust.
type Options struct {
	Budget run.Budget
	Runs   int // independent runs per (algorithm, instance)
	Seed   uint64
}

// Full returns the paper's protocol: 90 s wall-clock, 10 runs.
func Full() Options {
	return Options{Budget: run.Budget{MaxTime: 90 * time.Second}, Runs: 10, Seed: 1}
}

// Validate reports the first option error.
func (o Options) Validate() error {
	switch {
	case !o.Budget.Bounded():
		return fmt.Errorf("experiments: unbounded budget")
	case o.Runs < 1:
		return fmt.Errorf("experiments: Runs = %d", o.Runs)
	}
	return nil
}

// Sample is the aggregate of repeated runs of one algorithm on one
// instance.
type Sample struct {
	Algorithm string
	Instance  string
	Runs      []run.Result

	BestMakespan float64 // min over runs (the paper reports best-of-10)
	BestFlowtime float64 // flowtime of the run with the best fitness
	BestFitness  float64
	Makespans    stats.Summary
	Flowtimes    stats.Summary
}

// Repeat runs alg on in o.Runs times with seeds o.Seed, o.Seed+1, ... on
// the batch executor's worker pool and aggregates the results. A
// cancelled budget context yields the runs completed so far.
func Repeat(alg Algorithm, in *etc.Instance, o Options) (Sample, error) {
	if err := o.Validate(); err != nil {
		return Sample{}, err
	}
	seeds := make([]uint64, o.Runs)
	for k := range seeds {
		seeds[k] = o.Seed + uint64(k)
	}
	batch, err := gridcma.RunBatch(o.Budget.Context(), gridcma.BatchSpec{
		Instances:  []*etc.Instance{in},
		Algorithms: []Algorithm{alg},
		Budget:     o.Budget,
		Seeds:      seeds,
	})
	if failed(err) {
		return Sample{}, err
	}
	results := make([]run.Result, len(batch))
	for i, b := range batch {
		results[i] = b.Result
	}
	return aggregate(alg.Name(), in.Name, results), nil
}

// failed reports whether err is a failure rather than the budget
// context's cancellation, after which the runners report what was found
// so far.
func failed(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func aggregate(alg, inst string, results []run.Result) Sample {
	s := Sample{Algorithm: alg, Instance: inst, Runs: results}
	if len(results) == 0 { // every run cancelled before starting
		return s
	}
	ms := make([]float64, len(results))
	fts := make([]float64, len(results))
	bestIdx := 0
	for i, r := range results {
		ms[i] = r.Makespan
		fts[i] = r.Flowtime
		if r.Fitness < results[bestIdx].Fitness {
			bestIdx = i
		}
		if i == 0 || r.Makespan < s.BestMakespan {
			s.BestMakespan = r.Makespan
		}
	}
	s.BestFitness = results[bestIdx].Fitness
	s.BestFlowtime = results[bestIdx].Flowtime
	s.Makespans = stats.Summarize(ms)
	s.Flowtimes = stats.Summarize(fts)
	return s
}

// evalsPerIteration estimates how many full fitness evaluations one budget
// iteration of the named registry algorithm costs at its defaults, used
// to grant different algorithms comparable budgets when running
// iteration-bounded (tests/benches). The time-budgeted reproduction path
// does not need this.
func evalsPerIteration(name string) int {
	switch name {
	case "cma":
		cfg := cma.DefaultConfig()
		return cfg.Recombinations + cfg.Mutations
	case "braun-ga":
		return ga.Braun.PopSize()
	case "sa":
		return 1024 // one sweep ≈ 2×512 proposals
	case "tabu":
		return 128 // samples per step (default 8×16)
	default:
		return 1
	}
}

// FairBudget converts a total evaluation allowance into a per-algorithm
// iteration budget, so iteration-bounded comparisons give every algorithm
// roughly the same number of fitness evaluations.
func FairBudget(alg Algorithm, evals int) run.Budget {
	per := evalsPerIteration(alg.Name())
	iters := evals / per
	if iters < 1 {
		iters = 1
	}
	return run.Budget{MaxIterations: iters}
}
