// Package ga implements the three unstructured genetic algorithms the
// paper compares against (Tables 2, 3 and 5):
//
//   - Braun et al.'s GA (JPDC 2001): generational, rank-based roulette
//     selection, one-point crossover, move mutation, elitism, population
//     seeded with Min-Min.
//   - Carretero & Xhafa's GA (2006): steady-state — each step breeds one
//     offspring from tournament-selected parents and replaces the worst
//     individual if better.
//   - Xhafa's Struggle GA (BIOMA 2006): steady-state with struggle
//     replacement — the offspring replaces the *most similar* individual
//     (Hamming distance over the assignment vector) when fitter, which
//     preserves diversity.
//
// All three optimise the same scalarised fitness as the cMA and share the
// run.Budget / run.Result vocabulary, so the experiment harness can drive
// them interchangeably. Parameters follow the published descriptions where
// stated and are documented defaults otherwise (see variantParams).
package ga

import (
	"fmt"
	"math"

	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Variant selects one of the implemented genetic algorithms.
type Variant int

const (
	// Braun is the generational GA of Braun et al.
	Braun Variant = iota
	// SteadyState is the Carretero–Xhafa replace-worst GA.
	SteadyState
	// Struggle is Xhafa's similarity-replacement GA.
	Struggle
	// GSA is the genetic simulated annealing hybrid of the Braun et al.
	// heuristic suite: steady-state GA variation with a Metropolis
	// acceptance test against the replacement victim and a geometric
	// temperature schedule.
	GSA
)

// String returns the name used in results and reports.
func (v Variant) String() string {
	switch v {
	case Braun:
		return "BraunGA"
	case SteadyState:
		return "SteadyStateGA"
	case Struggle:
		return "StruggleGA"
	case GSA:
		return "GSA"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config selects a GA variant and the fitness it optimises. Every other
// parameter is fixed per variant (variantParams).
type Config struct {
	Variant   Variant
	Objective schedule.Objective
}

// NewConfig returns variant v under the default objective.
func NewConfig(v Variant) Config {
	return Config{Variant: v, Objective: schedule.DefaultObjective}
}

// params are one variant's fixed parameters. Every variant breeds with
// one-point crossover and move mutation, and the generational Braun GA
// always carries its best individual into the next generation.
type params struct {
	popSize int
	// crossoverProb and mutationProb gate the two operators per
	// offspring.
	crossoverProb float64
	mutationProb  float64
	selector      operators.Selector
	// seed builds the one seeded individual; the rest are random.
	seed func(*etc.Instance) schedule.Schedule
	// initialTempFactor and cooling drive GSA's Metropolis acceptance:
	// the temperature starts at initialTempFactor × the seed fitness and
	// is multiplied by cooling after every step.
	initialTempFactor float64
	cooling           float64
}

// variantParams holds the published settings of each variant (Braun et
// al.: population 200, crossover 0.6, mutation 0.4, rank selection,
// elitism, a Min-Min seed) and documented defaults where a paper gives
// none.
var variantParams = [...]params{
	Braun: {popSize: 200, crossoverProb: 0.6, mutationProb: 0.4,
		selector: operators.LinearRank{}, seed: heuristics.MinMin},
	SteadyState: {popSize: 60, crossoverProb: 1.0, mutationProb: 0.4,
		selector: operators.NewTournament(3), seed: heuristics.LJFRSJFR},
	Struggle: {popSize: 60, crossoverProb: 1.0, mutationProb: 0.4,
		selector: operators.NewTournament(3), seed: heuristics.LJFRSJFR},
	GSA: {popSize: 60, crossoverProb: 1.0, mutationProb: 0.4,
		selector: operators.NewTournament(3), seed: heuristics.MinMin,
		initialTempFactor: 0.1, cooling: 0.99},
}

// PopSize is the variant's population size.
func (v Variant) PopSize() int { return variantParams[v].popSize }

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Variant < 0 || int(c.Variant) >= len(variantParams):
		return fmt.Errorf("ga: unknown variant %v", c.Variant)
	case c.Objective.Lambda < 0 || c.Objective.Lambda > 1:
		return fmt.Errorf("ga: lambda %v", c.Objective.Lambda)
	}
	return nil
}

// Scheduler is a reusable GA bound to a configuration.
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

// Run executes the GA within budget.
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	if !budget.Bounded() {
		panic("ga: unbounded budget")
	}
	g := &gaState{in: in, cfg: s.cfg, p: variantParams[s.cfg.Variant], r: rng.New(seed)}
	g.init()
	return g.run(budget, obs)
}

// gaState is the mutable state of one GA run.
type gaState struct {
	in  *etc.Instance
	cfg Config
	p   params
	r   *rng.Source

	pop []*schedule.State
	fit []float64
	// next/nextFit double-buffer the generational variant so a
	// generation swaps populations instead of allocating one.
	next    []*schedule.State
	nextFit []float64

	scratch *evalpool.Scratch
	evals   int64
	temp    float64 // GSA temperature

	best evalpool.Best
}

func (g *gaState) init() {
	g.pop = make([]*schedule.State, g.p.popSize)
	g.fit = make([]float64, g.p.popSize)
	for i := range g.pop {
		var s schedule.Schedule
		if i == 0 {
			s = g.p.seed(g.in)
		} else {
			s = schedule.NewRandom(g.in, g.r)
		}
		g.pop[i] = schedule.NewState(g.in, s)
		g.fit[i] = g.cfg.Objective.Of(g.pop[i])
		g.evals++
		g.best.Note(g.pop[i], g.cfg.Objective, g.fit[i])
	}
	g.scratch = evalpool.New(g.in).Get()
	if g.cfg.Variant == GSA {
		g.temp = g.p.initialTempFactor * g.best.Threshold()
	}
}

// breed produces one offspring into g.scratch from two selected parents
// (Propose into the scratch buffer, mutate in place) and returns its
// fitness.
func (g *gaState) breed(indices []int) float64 {
	fitAt := func(i int) float64 { return g.fit[i] }
	p1 := g.p.selector.Select(indices, fitAt, g.r)
	p2 := g.p.selector.Select(indices, fitAt, g.r)
	if g.r.Float64() < g.p.crossoverProb {
		operators.OnePoint{}.Cross(g.pop[p1].ScheduleView(), g.pop[p2].ScheduleView(), g.scratch.Buf, g.r)
		g.scratch.St.SetSchedule(g.scratch.Buf)
	} else {
		g.scratch.St.CopyFrom(g.pop[p1])
	}
	if g.r.Float64() < g.p.mutationProb {
		operators.Move{}.Mutate(g.scratch.St, g.r)
	}
	g.evals++
	return g.cfg.Objective.Of(g.scratch.St)
}

func (g *gaState) run(budget run.Budget, obs run.Observer) run.Result {
	indices := make([]int, g.p.popSize)
	for i := range indices {
		indices[i] = i
	}
	res := run.Loop(budget, obs, &g.best, func(int) {
		switch g.cfg.Variant {
		case Braun:
			g.generation(indices)
		default:
			g.steadyStep(indices)
		}
	})
	res.Evals, res.Algorithm = g.evals, g.cfg.Variant.String()
	return res
}

// generation performs one full generational replacement (Braun variant).
// The two populations are double-buffered: offspring are copied into the
// standby population, which is then swapped in — no per-offspring clone.
func (g *gaState) generation(indices []int) {
	n := g.p.popSize
	if g.next == nil {
		g.next = make([]*schedule.State, n)
		g.nextFit = make([]float64, n)
		for i := range g.next {
			g.next[i] = schedule.NewState(g.in, g.pop[i].ScheduleView())
		}
	}
	// Elitism: carry over the best current individual unchanged.
	bi := 0
	for i := 1; i < n; i++ {
		if g.fit[i] < g.fit[bi] {
			bi = i
		}
	}
	g.next[0].CopyFrom(g.pop[bi])
	g.nextFit[0] = g.fit[bi]
	for i := 1; i < n; i++ {
		f := g.breed(indices)
		g.next[i].CopyFrom(g.scratch.St)
		g.nextFit[i] = f
		g.best.Note(g.next[i], g.cfg.Objective, f)
	}
	g.pop, g.next = g.next, g.pop
	g.fit, g.nextFit = g.nextFit, g.fit
}

// steadyStep breeds one offspring and inserts it with the variant's
// replacement policy.
func (g *gaState) steadyStep(indices []int) {
	f := g.breed(indices)
	victim := -1
	switch g.cfg.Variant {
	case SteadyState:
		// Replace the worst individual if the child improves on it.
		worst := 0
		for i := 1; i < g.p.popSize; i++ {
			if g.fit[i] > g.fit[worst] {
				worst = i
			}
		}
		if f < g.fit[worst] {
			victim = worst
		}
	case Struggle:
		// Replace the most similar individual if the child improves on it.
		child := g.scratch.St.ScheduleView()
		closest, bestD := 0, g.in.Jobs+1
		for i := 0; i < g.p.popSize; i++ {
			if d := child.Hamming(g.pop[i].ScheduleView()); d < bestD {
				closest, bestD = i, d
			}
		}
		if f < g.fit[closest] {
			victim = closest
		}
	case GSA:
		// Metropolis acceptance against a random victim, then cool.
		cand := g.r.Intn(g.p.popSize)
		accept := f < g.fit[cand]
		if !accept && g.temp > 0 {
			accept = g.r.Float64() < math.Exp((g.fit[cand]-f)/g.temp)
		}
		if accept {
			victim = cand
		}
		g.temp *= g.p.cooling
	default:
		panic(fmt.Sprintf("ga: steadyStep on variant %v", g.cfg.Variant))
	}
	if victim >= 0 {
		g.pop[victim].CopyFrom(g.scratch.St)
		g.fit[victim] = f
		g.best.Note(g.scratch.St, g.cfg.Objective, f)
	}
}
