// Package cma implements the paper's contribution: a Cellular Memetic
// Algorithm (cMA) for batch scheduling of independent jobs on
// heterogeneous grids, following Algorithm 1 of the paper.
//
// The population lives on a toroidal 2-D grid. Each iteration performs
// nb_recombinations recombination updates and nb_mutations mutation
// updates; the two processes walk the grid with independent sweep orders
// (Table 1: FLS for recombination, NRS for mutation). Every offspring is
// improved by a local search method before evaluation and replaces the
// individual at its cell only if strictly better ("add only if better").
//
// Three updating disciplines are provided:
//
//   - Asynchronous sequential (the paper's choice, Workers = 0): updates
//     are applied in sweep order within the iteration, so later cells see
//     earlier replacements. One shared RNG stream, strictly sequential.
//   - Asynchronous block-parallel (Workers >= 1): the grid is partitioned
//     (internal/cell.Partition) and cells are swept in its wave order —
//     a cover of the grid by pairwise non-interacting cell sets. Updates
//     are planned into execution waves, each wave's offspring evaluated
//     concurrently across Workers goroutines from per-update RNG streams,
//     and committed in draw order, so later waves see earlier
//     replacements. Because intra-wave updates touch disjoint
//     neighborhoods, the run is byte-identical for every worker count.
//   - Synchronous: all offspring of an iteration are computed against the
//     frozen current generation and committed together at the end — one
//     big wave of the same executor, equally reproducible for any
//     Workers.
package cma

import (
	"fmt"
	"sync"

	"gridcma/internal/cell"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/heuristics"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Config collects every tunable of the cMA. DefaultConfig returns the
// paper's Table 1 values; zero-value fields in a hand-built Config are
// rejected by Validate rather than silently defaulted.
type Config struct {
	Width, Height int // population grid shape (Table 1: 5×5)

	Pattern     cell.Pattern // neighborhood (Table 1: C9)
	RecombOrder cell.Order   // sweep order of the recombination pass (FLS)
	MutOrder    cell.Order   // sweep order of the mutation pass (NRS)

	Recombinations       int // recombination updates per iteration (25)
	Mutations            int // mutation updates per iteration (12)
	SolutionsToRecombine int // |S| in SelectToRecombine (3)

	Selector  operators.Selector  // parent selection (3-Tournament)
	Crossover operators.Crossover // recombination (One-Point)
	Mutator   operators.Mutator   // mutation (Rebalance)

	LocalSearch  localsearch.Method // offspring improvement (LMCTS)
	LSIterations int                // local search budget per offspring (5)

	Objective schedule.Objective // fitness (λ = 0.75)

	// AddOnlyIfBetter controls replacement: if true (the paper's setting)
	// an offspring replaces its cell only when strictly fitter.
	AddOnlyIfBetter bool

	// SeedHeuristic builds individual 0; the rest of the population are
	// perturbed copies. Nil seeds the whole population randomly.
	SeedHeuristic func(*etc.Instance) schedule.Schedule
	// PerturbFraction is the fraction of genes randomised when deriving
	// the initial population from the seed individual (0.3 by default).
	PerturbFraction float64

	// Synchronous switches to generation-synchronous updating.
	Synchronous bool
	// Workers bounds the goroutines evaluating offspring. In asynchronous
	// mode 0 selects the paper-faithful strictly sequential engine (one
	// shared RNG stream), while any value >= 1 selects the block-parallel
	// partitioned engine, whose results depend only on the seed — never on
	// the worker count. In synchronous mode 0 means one goroutine; results
	// are likewise identical for every worker count.
	Workers int
}

// DefaultConfig returns the tuned configuration of Table 1.
func DefaultConfig() Config {
	return Config{
		Width: 5, Height: 5,
		Pattern:              cell.C9,
		RecombOrder:          cell.FLS,
		MutOrder:             cell.NRS,
		Recombinations:       25,
		Mutations:            12,
		SolutionsToRecombine: 3,
		Selector:             operators.NewTournament(3),
		Crossover:            operators.OnePoint{},
		Mutator:              operators.DefaultRebalance,
		LocalSearch:          localsearch.LMCTS{},
		LSIterations:         5,
		Objective:            schedule.DefaultObjective,
		AddOnlyIfBetter:      true,
		SeedHeuristic:        heuristics.LJFRSJFR, // Table 1 "start choice"
		PerturbFraction:      0.3,
	}
}

// MaxCells caps the population a Config may ask for: Width×Height of at
// most 65,536 cells, about 2,600 times the paper's 5×5 mesh. Configs
// arrive from files and from the wire (internal/island/dist), so the cap
// turns a huge or overflowing grid into an error instead of a failed
// allocation.
const MaxCells = 1 << 16

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("cma: invalid grid %dx%d", c.Width, c.Height)
	case c.Width > MaxCells || c.Height > MaxCells || c.Width*c.Height > MaxCells:
		// Each side is checked first so the product cannot overflow.
		return fmt.Errorf("cma: grid %dx%d exceeds %d cells", c.Width, c.Height, MaxCells)
	case c.Recombinations < 0 || c.Mutations < 0:
		return fmt.Errorf("cma: negative update counts")
	case c.Recombinations == 0 && c.Mutations == 0:
		return fmt.Errorf("cma: no updates per iteration")
	case c.SolutionsToRecombine < 2:
		return fmt.Errorf("cma: SolutionsToRecombine = %d, need >= 2", c.SolutionsToRecombine)
	case c.Recombinations > 0 && c.Width*c.Height < 2:
		// A lone cell is its whole neighbourhood: recombination has no
		// second parent to draw.
		return fmt.Errorf("cma: recombination on a %dx%d grid, need >= 2 cells", c.Width, c.Height)
	case c.Selector == nil:
		return fmt.Errorf("cma: nil Selector")
	case c.Crossover == nil:
		return fmt.Errorf("cma: nil Crossover")
	case c.Mutator == nil:
		return fmt.Errorf("cma: nil Mutator")
	case c.LocalSearch == nil:
		return fmt.Errorf("cma: nil LocalSearch")
	case c.LSIterations < 0:
		return fmt.Errorf("cma: negative LSIterations")
	case c.Objective.Lambda < 0 || c.Objective.Lambda > 1:
		return fmt.Errorf("cma: lambda %v outside [0,1]", c.Objective.Lambda)
	case c.PerturbFraction < 0 || c.PerturbFraction > 1:
		return fmt.Errorf("cma: PerturbFraction %v outside [0,1]", c.PerturbFraction)
	case c.Workers < 0:
		return fmt.Errorf("cma: negative Workers")
	}
	return nil
}

// Scheduler is a reusable cMA instance bound to a configuration.
type Scheduler struct {
	cfg Config
}

// New returns a Scheduler after validating cfg. A nil SeedHeuristic means
// a fully random initial population; DefaultConfig seeds with LJFR-SJFR as
// the paper does.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg}, nil
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name identifies the algorithm in results.
func (s *Scheduler) Name() string {
	switch {
	case s.cfg.Synchronous:
		return "cMA-sync"
	case s.cfg.Workers > 0:
		return "cMA-par"
	default:
		return "cMA"
	}
}

// Run executes the cMA on instance in with the given budget and RNG seed,
// reporting progress to obs (which may be nil).
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	if !budget.Bounded() {
		panic("cma: unbounded budget")
	}
	e := newEngine(in, s.cfg, seed, nil, budget, nil)
	return e.run(budget, obs, s.Name())
}

// RunWithStatesPooled is Run resumed from a live mesh: the engine
// adopts the caller's States as its cells — warm prefix sums, tournament
// trees and ScanCache entries included — instead of building them, and
// returns the final mesh, owned by the caller, for the next segment. It
// is the one resume path of the coarse-grained island model: a
// distributed worker (internal/island/dist) keeps each island's mesh
// between segments and re-targets it at the shipped population. Commits
// swap offspring workspaces into the mesh, so the returned States may be
// different objects from the ones passed in: some of those end up as
// pool workspaces, and the caller must keep only the returned slice.
// Local search improves each adopted individual before the first
// evaluation, as it improves a fresh mesh's.
//
// Offspring workspaces come from pool, which a worker shares across its
// concurrently running segments (the pool is safe for that); a nil pool,
// or one bound to a different instance, falls back to a private one.
// Sharing never affects results: scratches are always re-pointed
// (SetSchedule / CopyFrom) before being read.
//
// states must be nil (a fresh mesh, as Run builds) or hold exactly
// Width*Height entries on in.
func (s *Scheduler) RunWithStatesPooled(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer, states []*schedule.State, pool *evalpool.Pool) (run.Result, []*schedule.State) {
	if !budget.Bounded() {
		panic("cma: unbounded budget")
	}
	if pool != nil && pool.Instance() != in {
		pool = nil
	}
	if states != nil && len(states) != s.cfg.Width*s.cfg.Height {
		panic("cma: RunWithStatesPooled: state count does not match the mesh")
	}
	e := newEngine(in, s.cfg, seed, states, budget, pool)
	res := e.run(budget, obs, s.Name())
	return res, e.pop
}

// engine is the mutable state of one run.
type engine struct {
	in     *etc.Instance
	cfg    Config
	r      *rng.Source
	seed   uint64
	budget run.Budget // for cancellation polling inside expensive phases
	grid   cell.Grid
	nb     *cell.Neighborhood
	pop    []*schedule.State
	fit    []float64
	adopt  []*schedule.State // caller-owned warm states adopted as the mesh
	recOrd cell.SweepOrder
	mutOrd cell.SweepOrder

	// allocation-free evaluation plumbing (internal/evalpool)
	pool    *evalpool.Pool
	scratch *evalpool.Scratch // sequential-path offspring workspace
	evals   int64

	// partitioned parallel executor state (par.go); nil/empty for the
	// sequential engine
	part      *cell.Partition
	draws     []draw
	drawCells []int
	waves     [][]int
	frozenFit []float64

	// persistent worker pool (par.go): started lazily at the first
	// parallel batch, stopped when run returns
	tasks    chan int
	taskWG   sync.WaitGroup
	taskExec func(int)

	// best-ever (the population best is monotone under add-if-better,
	// but we track explicitly to also support AddOnlyIfBetter=false).
	best evalpool.Best
}

func newEngine(in *etc.Instance, cfg Config, seed uint64, adopt []*schedule.State, budget run.Budget, pool *evalpool.Pool) *engine {
	if pool == nil {
		pool = evalpool.New(in)
	}
	e := &engine{
		in:     in,
		cfg:    cfg,
		r:      rng.New(seed),
		seed:   seed,
		grid:   cell.NewGrid(cfg.Width, cfg.Height),
		budget: budget,
		pool:   pool,
		adopt:  adopt,
	}
	e.nb = cell.NewNeighborhood(e.grid, cfg.Pattern)
	n := e.grid.Size()
	e.pop = make([]*schedule.State, n)
	e.fit = make([]float64, n)
	if !cfg.Synchronous && cfg.Workers > 0 {
		// Block-parallel engine: both passes sweep the partition's wave
		// order, so consecutive draws form wide independent waves.
		e.part = cell.NewPartition(e.grid, cfg.Pattern)
		ord := e.part.Order()
		e.recOrd = cell.NewPermSweep(ord)
		e.mutOrd = cell.NewPermSweep(append([]int(nil), ord...))
	} else {
		e.recOrd = cell.NewSweep(cfg.RecombOrder, n, e.r.Split())
		e.mutOrd = cell.NewSweep(cfg.MutOrder, n, e.r.Split())
	}

	e.initPopulation()
	return e
}

// workers returns the effective worker count of the parallel paths.
func (e *engine) workers() int {
	if e.cfg.Workers < 1 {
		return 1
	}
	return e.cfg.Workers
}

// initPopulation builds the initial mesh. Resumed from adopted States
// (a migration segment), every cell is the caller's State. Otherwise the
// mesh is the seed heuristic individual plus perturbed copies (or
// all-random when no seed heuristic). In every case — per Algorithm 1 —
// local search improves each individual before the first evaluation.
//
// With Workers >= 1 the per-cell work (perturbation and local search)
// draws from per-cell RNG streams and is fanned across the workers; the
// result is identical for every worker count. Workers == 0 keeps the
// legacy strictly sequential initialisation on the shared stream.
func (e *engine) initPopulation() {
	var base schedule.Schedule
	if e.adopt == nil && e.cfg.SeedHeuristic != nil {
		base = e.cfg.SeedHeuristic(e.in)
	}
	frac := e.cfg.PerturbFraction
	if frac == 0 {
		frac = 0.3
	}
	if e.cfg.Workers >= 1 {
		e.initCells(base, frac)
	} else {
		for i := range e.pop {
			e.initCell(i, base, frac, e.r)
		}
	}
	e.evals += int64(len(e.pop))
	e.scratch = e.pool.Get()
	e.refreshBest()
}

// initCell builds, improves and evaluates the individual of one cell.
// Initialisation runs a local search per individual — seconds of work on
// large instances — so cancellation is polled here too; a cancelled
// engine still leaves every cell fully evaluated.
func (e *engine) initCell(i int, base schedule.Schedule, frac float64, r *rng.Source) {
	switch {
	case e.adopt != nil:
		// Cache-aware resume: the caller's live State becomes the cell,
		// warm caches and all, with no construction and no RNG draws.
		e.pop[i] = e.adopt[i]
	case base != nil && i == 0:
		e.pop[i] = schedule.NewState(e.in, base)
	case base != nil:
		s := base.Clone()
		schedule.Perturb(s, e.in, r, frac)
		e.pop[i] = schedule.NewState(e.in, s)
	default:
		e.pop[i] = schedule.NewState(e.in, schedule.NewRandom(e.in, r))
	}
	if !e.budget.Cancelled() {
		e.cfg.LocalSearch.Improve(e.pop[i], e.cfg.Objective, e.cfg.LSIterations, r)
	}
	e.fit[i] = e.cfg.Objective.Of(e.pop[i])
}

func (e *engine) refreshBest() {
	for i, f := range e.fit {
		if !e.best.Ok() || f < e.best.Threshold() {
			e.best.Note(e.pop[i], e.cfg.Objective, f)
		}
	}
}

// releaseScratches returns every checked-out workspace to the pool, so a
// pool shared within an island run hands them to the next segment.
func (e *engine) releaseScratches() {
	e.pool.Put(e.scratch)
	e.scratch = nil
	for k := range e.draws {
		e.pool.Put(e.draws[k].scratch)
		e.draws[k].scratch = nil
	}
	e.draws = nil
}

func (e *engine) run(budget run.Budget, obs run.Observer, name string) run.Result {
	defer e.stopWorkers()
	defer e.releaseScratches()
	res := run.Loop(budget, obs, &e.best, e.iterate)
	res.Evals, res.Algorithm = e.evals, name
	return res
}

// iterate runs iteration iter under the configured updating discipline.
func (e *engine) iterate(iter int) {
	switch {
	case e.cfg.Synchronous:
		e.iterateBatch(iter, true)
	case e.cfg.Workers > 0:
		e.iterateBatch(iter, false)
	default:
		e.iterateAsync()
	}
}

// recombineInto computes one recombination offspring for cell c into the
// scratch workspace s (Propose: crossover into s.Buf; Improve: local
// search on s.St). It selects SolutionsToRecombine distinct parents from
// the neighborhood with the configured selector and recombines the two
// fittest. fitAt reads fitness of a cell (differs between async, which
// sees fresh values, and sync, which sees the frozen generation). Returns
// the child's fitness.
func (e *engine) recombineInto(c int, s *evalpool.Scratch, popAt func(int) *schedule.State, fitAt func(int) float64, r *rng.Source) float64 {
	sel := operators.SelectDistinctInto(e.cfg.Selector, e.cfg.SolutionsToRecombine, e.nb.Of[c], fitAt, r, s.Idx)
	s.Idx = sel
	// Two fittest of S.
	p1, p2 := sel[0], sel[1]
	if fitAt(p2) < fitAt(p1) {
		p1, p2 = p2, p1
	}
	for _, x := range sel[2:] {
		switch {
		case fitAt(x) < fitAt(p1):
			p2, p1 = p1, x
		case fitAt(x) < fitAt(p2):
			p2 = x
		}
	}
	a, b := popAt(p1).ScheduleView(), popAt(p2).ScheduleView()
	e.cfg.Crossover.Cross(a, b, s.Buf, r)
	// Rebuild from the parent the child differs from in fewer jobs (the
	// first on a tie): SetScheduleFrom re-lists only the differing jobs,
	// and its result does not depend on the base.
	base, d := popAt(p1), 0
	for j, m := range s.Buf {
		if m != a[j] {
			d++
		}
		if m != b[j] {
			d--
		}
	}
	if d > 0 {
		base = popAt(p2)
	}
	s.St.SetScheduleFrom(base, s.Buf)
	e.cfg.LocalSearch.Improve(s.St, e.cfg.Objective, e.cfg.LSIterations, r)
	return e.cfg.Objective.Of(s.St)
}

// mutateInto copies cell c into the scratch workspace, applies the
// mutation operator and local search. Returns the offspring fitness.
func (e *engine) mutateInto(c int, s *evalpool.Scratch, popAt func(int) *schedule.State, r *rng.Source) float64 {
	s.St.CopyFrom(popAt(c))
	e.cfg.Mutator.Mutate(s.St, r)
	e.cfg.LocalSearch.Improve(s.St, e.cfg.Objective, e.cfg.LSIterations, r)
	return e.cfg.Objective.Of(s.St)
}

// replace commits the offspring in workspace s (fitness f) into cell c
// when the replacement policy allows (Commit of the offspring pipeline).
// The commit swaps States instead of copying one: the offspring becomes
// the cell, and the cell's old State becomes the workspace, which the
// next Propose overwrites (CopyFrom or SetScheduleFrom) before reading.
func (e *engine) replace(c int, s *evalpool.Scratch, f float64) {
	if e.cfg.AddOnlyIfBetter && f >= e.fit[c] {
		return
	}
	e.pop[c], s.St = s.St, e.pop[c]
	e.fit[c] = f
	e.best.Note(e.pop[c], e.cfg.Objective, f)
}

// iterateAsync runs one asynchronous iteration per Algorithm 1: the
// recombination pass followed by the mutation pass, each on its own sweep
// order, with replacements visible immediately. Cancellation (and only
// cancellation — time/iteration bounds stay iteration-granular for
// determinism) is polled per update, since one full iteration of local
// searches can cost seconds on large instances.
func (e *engine) iterateAsync() {
	popAt := func(i int) *schedule.State { return e.pop[i] }
	fitAt := func(i int) float64 { return e.fit[i] }
	for k := 0; k < e.cfg.Recombinations; k++ {
		if e.budget.Cancelled() {
			return
		}
		c := e.recOrd.Next()
		f := e.recombineInto(c, e.scratch, popAt, fitAt, e.r)
		e.evals++
		e.replace(c, e.scratch, f)
	}
	for k := 0; k < e.cfg.Mutations; k++ {
		if e.budget.Cancelled() {
			return
		}
		c := e.mutOrd.Next()
		f := e.mutateInto(c, e.scratch, popAt, e.r)
		e.evals++
		e.replace(c, e.scratch, f)
	}
}
