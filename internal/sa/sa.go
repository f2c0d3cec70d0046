// Package sa implements simulated annealing for the ETC batch scheduling
// problem. SA is one of the eleven heuristics of Braun et al. (JPDC 2001)
// whose benchmark the paper adopts; it serves here as an additional
// single-solution baseline for the experiment harness and the ablation
// benches.
//
// The neighborhood is the single-job move (the same proposal as the LM
// local search); the acceptance rule is Metropolis with geometric cooling.
package sa

import (
	"fmt"
	"math"

	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// The annealer's fixed parameters, after Braun et al. adapted to the
// scalarised objective. The search starts from Min-Min, and each budget
// iteration is one temperature step of 2×nb_jobs proposals.
const (
	// initialTempFactor scales the starting temperature relative to the
	// initial fitness (Braun et al. start at the initial makespan; 0.1 of
	// the fitness is a practical equivalent for the scalarised objective).
	initialTempFactor = 0.1
	// cooling is the geometric factor applied after every sweep.
	cooling = 0.9
)

// Config parameterises the annealer.
type Config struct {
	// Objective is the scalarised fitness (λ = 0.75 by default).
	Objective schedule.Objective
	// SweepProposals switches the proposal distribution from one uniform
	// (job, machine) candidate per step to a per-machine sweep: each step
	// draws a job and scores moving it to *every* machine in one
	// FitnessAfterMoveSweep call, then Metropolis-tests the steepest
	// target. The annealer walks a different (greedier) trajectory, so
	// the gate is off for the frozen "sa" registry entry and on for
	// "sa-sweep".
	SweepProposals bool
}

// DefaultConfig returns the classic annealer under the default objective.
func DefaultConfig() Config {
	return Config{Objective: schedule.DefaultObjective}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Objective.Lambda < 0 || c.Objective.Lambda > 1 {
		return fmt.Errorf("sa: lambda %v", c.Objective.Lambda)
	}
	return nil
}

// Scheduler is a reusable annealer bound to a configuration.
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
func (s *Scheduler) Name() string {
	if s.cfg.SweepProposals {
		return "SA-sweep"
	}
	return "SA"
}

// Run executes the annealer; one budget iteration is one temperature
// sweep.
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	if !budget.Bounded() {
		panic("sa: unbounded budget")
	}
	r := rng.New(seed)
	cur := schedule.NewState(in, heuristics.MinMin(in))
	o := s.cfg.Objective
	curFit := o.Of(cur)
	var best evalpool.Best
	best.Note(cur, o, curFit)
	temp := initialTempFactor * curFit
	sweep := 2 * in.Jobs

	var evals int64 = 1
	// Probe-then-commit through the state's scan cache (scalar-proposal
	// mode only — the sweep mode scores whole neighborhoods per call):
	// the cache recaptures the top machine completions once per accepted
	// move, so the many rejected proposals between commits probe in O(1)
	// on the makespan side instead of walking the tournament tree each
	// time. Its probes are bit-identical to the scalar ones, so the
	// Metropolis trajectory is unchanged.
	scans := cur.Scans(o)
	res := run.Loop(budget, obs, &best, func(int) {
		for k := 0; k < sweep; k++ {
			if s.cfg.SweepProposals {
				// Sweep-native proposal: draw a job, score all M targets
				// in one batched sweep, Metropolis-test the steepest one
				// (smallest machine id among exact ties).
				j := r.Intn(in.Jobs)
				fits := cur.FitnessAfterMoveSweep(o, j, nil)
				from := cur.Assign(j)
				bestF, bestTo := math.Inf(1), -1
				for to, f := range fits {
					if to != from && f < bestF {
						bestF, bestTo = f, to
					}
				}
				evals += int64(in.Machs - 1)
				if bestTo < 0 {
					continue
				}
				accept := bestF <= curFit
				if !accept && temp > 0 {
					accept = r.Float64() < math.Exp((curFit-bestF)/temp)
				}
				if accept {
					cur.Move(j, bestTo)
					curFit = bestF
					best.Note(cur, o, bestF)
				}
				continue
			}
			j := r.Intn(in.Jobs)
			to := r.Intn(in.Machs)
			if cur.Assign(j) == to {
				continue
			}
			f := scans.FitnessAfterMove(j, to)
			evals++
			accept := f <= curFit
			if !accept && temp > 0 {
				accept = r.Float64() < math.Exp((curFit-f)/temp)
			}
			if accept {
				cur.Move(j, to)
				curFit = f
				best.Note(cur, o, f)
			}
		}
		temp *= cooling
	})
	res.Evals, res.Algorithm = evals, s.Name()
	return res
}
