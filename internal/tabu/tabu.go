// Package tabu implements a tabu search scheduler for the ETC model,
// another member of the Braun et al. (JPDC 2001) heuristic suite that the
// paper's benchmark lineage uses as a baseline.
//
// Each step examines a sample of single-job moves, picks the best
// non-tabu move (with aspiration: a tabu move is allowed when it improves
// the global best) and marks the reverse (job, machine) pair tabu for
// Tenure steps.
package tabu

import (
	"fmt"
	"time"

	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Config parameterises the search.
type Config struct {
	// Tenure is how many steps a reversed move stays forbidden; 0
	// defaults to nb_jobs / 4.
	Tenure int
	// Samples is the number of candidate moves examined per step; 0
	// defaults to 8×nb_machines.
	Samples int
	// Objective is the scalarised fitness.
	Objective schedule.Objective
	// SeedHeuristic builds the starting solution; nil starts random.
	SeedHeuristic func(*etc.Instance) schedule.Schedule
}

// DefaultConfig returns a documented default configuration.
func DefaultConfig() Config {
	return Config{Objective: schedule.DefaultObjective, SeedHeuristic: heuristics.MinMin}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Tenure < 0:
		return fmt.Errorf("tabu: negative Tenure")
	case c.Samples < 0:
		return fmt.Errorf("tabu: negative Samples")
	case c.Objective.Lambda < 0 || c.Objective.Lambda > 1:
		return fmt.Errorf("tabu: lambda %v", c.Objective.Lambda)
	}
	return nil
}

// Scheduler is a reusable tabu search bound to a configuration.
type Scheduler struct {
	cfg Config
}

// New validates cfg and returns a Scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg}, nil
}

// Name identifies the algorithm in results.
func (s *Scheduler) Name() string { return "TabuSearch" }

// Run executes the search; one budget iteration is one accepted move.
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	if !budget.Bounded() {
		panic("tabu: unbounded budget")
	}
	r := rng.New(seed)
	var init schedule.Schedule
	if s.cfg.SeedHeuristic != nil {
		init = s.cfg.SeedHeuristic(in)
	} else {
		init = schedule.NewRandom(in, r)
	}
	cur := schedule.NewState(in, init)
	o := s.cfg.Objective
	curFit := o.Of(cur)
	var best evalpool.Best
	best.Note(cur, o, curFit)

	tenure := s.cfg.Tenure
	if tenure == 0 {
		tenure = in.Jobs / 4
		if tenure < 4 {
			tenure = 4
		}
	}
	samples := s.cfg.Samples
	if samples == 0 {
		samples = 8 * in.Machs
	}
	// tabuUntil[j*machs+m] is the first step at which moving job j to
	// machine m is allowed again.
	tabuUntil := make([]int, in.Jobs*in.Machs)

	start := time.Now()
	iter := 0
	var evals int64 = 1
	emit := func() {
		if obs != nil {
			obs(run.Progress{Elapsed: time.Since(start), Iteration: iter,
				Fitness: best.Fitness(), Makespan: best.Makespan(), Flowtime: best.Flowtime()})
		}
	}
	emit()
	scans := cur.Scans(o)
	for !budget.Done(iter, start) {
		bestJ, bestTo := -1, -1
		bestF := 0.0
		// The state is frozen for the step, so the scan cache's probe
		// context, recaptured once per committed move, answers every
		// probe's tree query in O(1). The probes stay bit-identical to
		// the scalar path.
		for k := 0; k < samples; k++ {
			j := r.Intn(in.Jobs)
			to := r.Intn(in.Machs)
			if cur.Assign(j) == to {
				continue
			}
			f := scans.FitnessAfterMove(j, to)
			evals++
			tabu := tabuUntil[j*in.Machs+to] > iter
			if tabu && f >= best.Threshold() { // aspiration only on global improvement
				continue
			}
			if bestJ < 0 || f < bestF {
				bestJ, bestTo, bestF = j, to, f
			}
		}
		if bestJ >= 0 {
			from := cur.Assign(bestJ)
			cur.Move(bestJ, bestTo)
			curFit = bestF
			// Forbid moving the job straight back.
			tabuUntil[bestJ*in.Machs+from] = iter + tenure
			best.Note(cur, o, curFit)
		}
		iter++
		emit()
	}
	return run.Result{
		Best: best.Schedule(), Fitness: best.Fitness(), Makespan: best.Makespan(), Flowtime: best.Flowtime(),
		Iterations: iter, Evals: evals, Elapsed: time.Since(start), Algorithm: s.Name(),
	}
}
