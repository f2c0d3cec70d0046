package pareto

import (
	"fmt"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// LambdaSweep runs the paper's scalarised cMA across a grid of λ values
// and merges every run's best solution (plus its observed incumbents)
// into one non-dominated front. It is the minimal-change multi-objective
// extension: the single-objective engine is reused verbatim.
//
// lambdas must be non-empty, each within [0, 1]; budget bounds each
// individual cMA run.
func LambdaSweep(in *etc.Instance, base cma.Config, lambdas []float64, budget run.Budget, seed uint64, capacity int) (*Front, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("pareto: empty lambda grid")
	}
	front := NewFront(capacity)
	for i, l := range lambdas {
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("pareto: lambda %v outside [0,1]", l)
		}
		cfg := base
		cfg.Objective = schedule.Objective{Lambda: l}
		sched, err := cma.New(cfg)
		if err != nil {
			return nil, err
		}
		res := sched.Run(in, budget, seed+uint64(i), nil)
		st := schedule.NewState(in, res.Best)
		front.AddState(st)
	}
	return front, nil
}
