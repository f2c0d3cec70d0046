package pareto

import (
	"fmt"
	"time"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
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

// MOConfig parameterises the cellular multi-objective memetic algorithm.
type MOConfig struct {
	// Base supplies the cellular structure and operators; its Objective
	// is used only inside the local search (a scalarising helper), while
	// replacement is dominance-based.
	Base cma.Config
	// ArchiveCapacity bounds the external non-dominated archive.
	ArchiveCapacity int
}

// DefaultMOConfig returns the paper-tuned cellular structure with a
// 100-solution archive.
func DefaultMOConfig() MOConfig {
	return MOConfig{Base: cma.DefaultConfig(), ArchiveCapacity: 100}
}

// MOResult is the outcome of a multi-objective run.
type MOResult struct {
	Front      *Front
	Iterations int
	Evals      int64
	Elapsed    time.Duration
}

// MOCellMA is a cellular multi-objective memetic algorithm in the spirit
// of MOCell: the toroidal population and neighborhood-local variation of
// the paper's cMA, with dominance-based cell replacement and an external
// crowding-pruned archive. A cell is replaced when the offspring
// dominates it, or — to keep selection pressure under incomparability —
// when the offspring wins on the cell's own scalarised fitness while not
// being dominated.
type MOCellMA struct {
	cfg MOConfig
}

// NewMOCellMA validates the configuration.
func NewMOCellMA(cfg MOConfig) (*MOCellMA, error) {
	if err := cfg.Base.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArchiveCapacity <= 0 {
		return nil, fmt.Errorf("pareto: archive capacity %d", cfg.ArchiveCapacity)
	}
	return &MOCellMA{cfg: cfg}, nil
}

// Run executes the multi-objective search within budget.
func (m *MOCellMA) Run(in *etc.Instance, budget run.Budget, seed uint64) MOResult {
	if !budget.Bounded() {
		panic("pareto: unbounded budget")
	}
	cfg := m.cfg.Base
	r := rng.New(seed)
	// Reuse the single-objective engine's building blocks directly.
	grid, nb, recOrd, mutOrd := cellSetup(cfg, r)

	// Population init mirrors the cMA: seed + perturbations, local search.
	n := grid
	pop := make([]*schedule.State, n)
	var base schedule.Schedule
	if cfg.SeedHeuristic != nil {
		base = cfg.SeedHeuristic(in)
	}
	frac := cfg.PerturbFraction
	if frac == 0 {
		frac = 0.3
	}
	var evals int64
	for i := range pop {
		var s schedule.Schedule
		switch {
		case base != nil && i == 0:
			s = base.Clone()
		case base != nil:
			s = base.Clone()
			schedule.Perturb(s, in, r, frac)
		default:
			s = schedule.NewRandom(in, r)
		}
		pop[i] = schedule.NewState(in, s)
		cfg.LocalSearch.Improve(pop[i], cfg.Objective, cfg.LSIterations, r)
		evals++
	}
	front := NewFront(m.cfg.ArchiveCapacity)
	for _, st := range pop {
		front.AddState(st)
	}

	obj := func(st *schedule.State) Vec { return Vec{Makespan: st.Makespan(), Flowtime: st.Flowtime()} }
	scal := cfg.Objective
	fitAt := func(i int) float64 { return scal.Of(pop[i]) }

	child := make(schedule.Schedule, in.Jobs)
	scratch := schedule.NewState(in, pop[0].Schedule())

	replace := func(c int) {
		o, cur := obj(scratch), obj(pop[c])
		switch {
		case o.Dominates(cur):
			pop[c].CopyFrom(scratch)
		case !cur.Dominates(o) && scal.Of(scratch) < scal.Of(pop[c]):
			pop[c].CopyFrom(scratch)
		default:
			return
		}
		front.AddState(scratch)
	}

	start := time.Now()
	iter := 0
	for !budget.Done(iter, start) {
		for k := 0; k < cfg.Recombinations; k++ {
			c := recOrd.Next()
			sel := operators.SelectDistinct(cfg.Selector, cfg.SolutionsToRecombine, nb[c], fitAt, r)
			p1, p2 := bestTwo(sel, fitAt)
			cfg.Crossover.Cross(pop[p1].ScheduleView(), pop[p2].ScheduleView(), child, r)
			scratch.SetSchedule(child)
			cfg.LocalSearch.Improve(scratch, scal, cfg.LSIterations, r)
			evals++
			replace(c)
		}
		for k := 0; k < cfg.Mutations; k++ {
			c := mutOrd.Next()
			scratch.CopyFrom(pop[c])
			cfg.Mutator.Mutate(scratch, r)
			cfg.LocalSearch.Improve(scratch, scal, cfg.LSIterations, r)
			evals++
			replace(c)
		}
		iter++
	}
	return MOResult{Front: front, Iterations: iter, Evals: evals, Elapsed: time.Since(start)}
}

// bestTwo returns the two fittest indices of sel under fit.
func bestTwo(sel []int, fit func(int) float64) (int, int) {
	p1, p2 := sel[0], sel[1]
	if fit(p2) < fit(p1) {
		p1, p2 = p2, p1
	}
	for _, s := range sel[2:] {
		switch {
		case fit(s) < fit(p1):
			p2, p1 = p1, s
		case fit(s) < fit(p2):
			p2 = s
		}
	}
	return p1, p2
}

// cellSetup builds the cellular plumbing from a cMA config.
func cellSetup(cfg cma.Config, r *rng.Source) (size int, neighborhoods [][]int, recOrd, mutOrd interface{ Next() int }) {
	return cma.CellComponents(cfg, r)
}
