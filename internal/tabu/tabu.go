// Package tabu implements a tabu search scheduler for the ETC model,
// another member of the Braun et al. (JPDC 2001) heuristic suite that the
// paper's benchmark lineage uses as a baseline.
//
// Each step examines a sample of single-job moves, picks the best
// non-tabu move (with aspiration: a tabu move is allowed when it improves
// the global best) and marks the reverse (job, machine) pair tabu for
// tenure steps.
package tabu

import (
	"fmt"

	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Config parameterises the search. The search starts from Min-Min; a
// step examines 8×nb_machines sampled moves, and a reversed move stays
// forbidden for nb_jobs/4 steps (at least 4).
type Config struct {
	// Objective is the scalarised fitness.
	Objective schedule.Objective
}

// DefaultConfig returns the search under the default objective.
func DefaultConfig() Config {
	return Config{Objective: schedule.DefaultObjective}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Objective.Lambda < 0 || c.Objective.Lambda > 1 {
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
	cur := schedule.NewState(in, heuristics.MinMin(in))
	o := s.cfg.Objective
	curFit := o.Of(cur)
	var best evalpool.Best
	best.Note(cur, o, curFit)

	tenure := max(in.Jobs/4, 4)
	samples := 8 * in.Machs
	// tabuUntil[j*machs+m] is the first step at which moving job j to
	// machine m is allowed again.
	tabuUntil := make([]int, in.Jobs*in.Machs)

	var evals int64 = 1
	scans := cur.Scans(o)
	res := run.Loop(budget, obs, &best, func(iter int) {
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
	})
	res.Evals, res.Algorithm = evals, s.Name()
	return res
}
