package cma

import (
	"math"
	"testing"
	"time"

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

func testInstance(seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: 128, Machs: 8})
}

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.LSIterations = 2
	cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 16}
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.Width, c.Height = 3037000500, 3037000500 }, // product overflows
		func(c *Config) { c.Width, c.Height = MaxCells, 2 },
		func(c *Config) { c.Recombinations = -1 },
		func(c *Config) { c.Recombinations = 0; c.Mutations = 0 },
		func(c *Config) { c.SolutionsToRecombine = 1 },
		func(c *Config) { c.Width, c.Height = 1, 1 }, // a lone cell has no second parent
		func(c *Config) { c.Selector = nil },
		func(c *Config) { c.Crossover = nil },
		func(c *Config) { c.Mutator = nil },
		func(c *Config) { c.LocalSearch = nil },
		func(c *Config) { c.LSIterations = -1 },
		func(c *Config) { c.Objective.Lambda = 1.5 },
		func(c *Config) { c.PerturbFraction = 2 },
		func(c *Config) { c.Workers = -1 },
	}
	for i, f := range mutate {
		cfg := DefaultConfig()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestRunImprovesOnSeedHeuristic(t *testing.T) {
	in := testInstance(1)
	s, err := New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(in, run.Budget{MaxIterations: 30}, 42, nil)
	seed := schedule.NewState(in, heuristics.LJFRSJFR(in))
	seedFit := schedule.DefaultObjective.Of(seed)
	if res.Fitness >= seedFit {
		t.Errorf("cMA fitness %v did not improve on LJFR-SJFR %v", res.Fitness, seedFit)
	}
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Errorf("iterations = %d, want 30", res.Iterations)
	}
	if res.Evals <= 25 {
		t.Errorf("evals = %d suspiciously low", res.Evals)
	}
	if res.Algorithm != "cMA" {
		t.Errorf("algorithm %q", res.Algorithm)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	in := testInstance(2)
	s, _ := New(quickCfg())
	a := s.Run(in, run.Budget{MaxIterations: 10}, 7, nil)
	b := s.Run(in, run.Budget{MaxIterations: 10}, 7, nil)
	if !a.Best.Equal(b.Best) || a.Fitness != b.Fitness {
		t.Fatal("same seed produced different results")
	}
	c := s.Run(in, run.Budget{MaxIterations: 10}, 8, nil)
	if a.Best.Equal(c.Best) {
		t.Log("warning: different seeds produced identical schedules (possible but unlikely)")
	}
}

func TestRunRespectsTimeBudget(t *testing.T) {
	in := testInstance(3)
	s, _ := New(quickCfg())
	start := time.Now()
	res := s.Run(in, run.Budget{MaxTime: 150 * time.Millisecond}, 1, nil)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("run took %v, budget was 150ms", elapsed)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations completed")
	}
}

func TestUnboundedBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s, _ := New(quickCfg())
	s.Run(testInstance(4), run.Budget{}, 1, nil)
}

func TestObserverSeesMonotoneBest(t *testing.T) {
	in := testInstance(5)
	s, _ := New(quickCfg())
	var fits []float64
	s.Run(in, run.Budget{MaxIterations: 20}, 3, func(p run.Progress) {
		fits = append(fits, p.Fitness)
	})
	if len(fits) != 21 { // initial emit + one per iteration
		t.Fatalf("got %d observations, want 21", len(fits))
	}
	for i := 1; i < len(fits); i++ {
		if fits[i] > fits[i-1]+1e-9 {
			t.Fatalf("best fitness regressed at %d: %v -> %v", i, fits[i-1], fits[i])
		}
	}
}

func TestRandomInitWhenNoSeedHeuristic(t *testing.T) {
	cfg := quickCfg()
	cfg.SeedHeuristic = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(testInstance(6), run.Budget{MaxIterations: 5}, 1, nil)
	if res.Best == nil {
		t.Fatal("no result")
	}
}

func TestSynchronousMatchesConfigAndRuns(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		cfg := quickCfg()
		cfg.Synchronous = true
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := testInstance(7)
		res := s.Run(in, run.Budget{MaxIterations: 10}, 5, nil)
		if err := res.Best.Validate(in); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Algorithm != "cMA-sync" {
			t.Errorf("algorithm %q", res.Algorithm)
		}
	}
}

func TestSynchronousDeterministicAcrossWorkerCounts(t *testing.T) {
	// The defining property of the parallel sync engine: results depend
	// only on the seed, not on the number of workers.
	in := testInstance(8)
	results := make([]run.Result, 0, 3)
	for _, workers := range []int{1, 2, 8} {
		cfg := quickCfg()
		cfg.Synchronous = true
		cfg.Workers = workers
		s, _ := New(cfg)
		results = append(results, s.Run(in, run.Budget{MaxIterations: 8}, 99, nil))
	}
	for i := 1; i < len(results); i++ {
		if !results[0].Best.Equal(results[i].Best) || results[0].Fitness != results[i].Fitness {
			t.Fatalf("worker count changed the result: %v vs %v", results[0].Fitness, results[i].Fitness)
		}
	}
}

func TestAsyncBeatsRandomSearchClearly(t *testing.T) {
	// cMA with 15 iterations should clearly beat pure random sampling
	// with a comparable number of evaluations.
	in := testInstance(9)
	s, _ := New(quickCfg())
	res := s.Run(in, run.Budget{MaxIterations: 15}, 11, nil)

	src := rng.New(11)
	r := schedule.NewState(in, schedule.NewRandom(in, src))
	bestRand := schedule.DefaultObjective.Of(r)
	for k := 0; k < int(res.Evals); k++ {
		r.SetSchedule(schedule.NewRandom(in, src))
		if f := schedule.DefaultObjective.Of(r); f < bestRand {
			bestRand = f
		}
	}
	if res.Fitness >= bestRand {
		t.Errorf("cMA %v not better than random search %v", res.Fitness, bestRand)
	}
}

func TestAllPatternsAndOrdersRun(t *testing.T) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.Low, MachineHet: etc.Low},
		0, etc.GenerateOptions{Seed: 10, Jobs: 64, Machs: 4})
	for _, p := range []cell.Pattern{cell.L5, cell.L9, cell.C9, cell.C13, cell.Panmictic} {
		for _, o := range []cell.Order{cell.FLS, cell.FRS, cell.NRS} {
			cfg := quickCfg()
			cfg.Pattern = p
			cfg.RecombOrder = o
			cfg.MutOrder = o
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run(in, run.Budget{MaxIterations: 3}, 1, nil)
			if err := res.Best.Validate(in); err != nil {
				t.Fatalf("%v/%v: %v", p, o, err)
			}
		}
	}
}

func TestAddOnlyIfBetterFalseStillTracksBest(t *testing.T) {
	cfg := quickCfg()
	cfg.AddOnlyIfBetter = false
	s, _ := New(cfg)
	in := testInstance(11)
	var fits []float64
	res := s.Run(in, run.Budget{MaxIterations: 15}, 2, func(p run.Progress) {
		fits = append(fits, p.Fitness)
	})
	for i := 1; i < len(fits); i++ {
		if fits[i] > fits[i-1]+1e-9 {
			t.Fatalf("best-ever must be monotone even without elitist replacement")
		}
	}
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestTunedOperatorsArePaperChoices(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Width*cfg.Height != 25 {
		t.Error("population must be 5×5 = 25")
	}
	if cfg.Pattern != cell.C9 {
		t.Error("pattern must be C9")
	}
	if cfg.RecombOrder != cell.FLS || cfg.MutOrder != cell.NRS {
		t.Error("orders must be FLS / NRS")
	}
	if cfg.Recombinations != 25 || cfg.Mutations != 12 {
		t.Error("update counts must be 25 / 12")
	}
	if sel, ok := cfg.Selector.(operators.Tournament); !ok || sel.N != 3 {
		t.Error("selector must be 3-tournament")
	}
	if cfg.Objective.Lambda != 0.75 {
		t.Error("lambda must be 0.75")
	}
	if cfg.LSIterations != 5 {
		t.Error("LS iterations must be 5")
	}
	if _, ok := cfg.LocalSearch.(localsearch.LMCTS); !ok {
		t.Error("local search must be LMCTS")
	}
}

// cutCross is one-point crossover at a fixed cut — the head of the
// first parent, the tail of the second — that records its parents.
type cutCross struct {
	cut  int
	a, b schedule.Schedule
}

func (c *cutCross) Cross(a, b, child schedule.Schedule, _ *rng.Source) {
	c.a, c.b = a, b
	copy(child[:c.cut], a[:c.cut])
	copy(child[c.cut:], b[c.cut:])
}

func (*cutCross) Name() string { return "fixed-cut" }

// TestRecombineRebuildsFromNearerParent drives recombination with a cut
// near 0, where the child is nearer the second parent, and one near n,
// where it is nearer the first, so the offspring rebuild starts from
// each parent in turn. Local search is off, so the workspace must hold
// exactly the child: its schedule, makespan, flowtime and fitness bits
// equal those of a State built from scratch.
func TestRecombineRebuildsFromNearerParent(t *testing.T) {
	in := testInstance(41)
	cfg := quickCfg()
	e := newEngine(in, cfg, 5, nil, run.Budget{MaxIterations: 1}, nil)
	defer e.releaseScratches()
	e.cfg.LSIterations = 0
	popAt := func(i int) *schedule.State { return e.pop[i] }
	fitAt := func(i int) float64 { return e.fit[i] }
	differ := func(x, y schedule.Schedule) int {
		n := 0
		for j := range x {
			if x[j] != y[j] {
				n++
			}
		}
		return n
	}
	for _, cut := range []int{3, in.Jobs - 3} {
		cross := &cutCross{cut: cut}
		e.cfg.Crossover = cross
		for c := range e.pop {
			f := e.recombineInto(c, e.scratch, popAt, fitAt, e.r)
			child := e.scratch.Buf
			if nearSecond := differ(child, cross.b) < differ(child, cross.a); nearSecond != (cut == 3) {
				t.Fatalf("cut %d cell %d: child nearer the second parent = %v", cut, c, nearSecond)
			}
			got, want := e.scratch.St, schedule.NewState(in, child)
			if !got.ScheduleView().Equal(child) ||
				math.Float64bits(got.Makespan()) != math.Float64bits(want.Makespan()) ||
				math.Float64bits(got.Flowtime()) != math.Float64bits(want.Flowtime()) ||
				math.Float64bits(f) != math.Float64bits(cfg.Objective.Of(want)) {
				t.Fatalf("cut %d cell %d: rebuilt child (%v, %v, %v) != NewState (%v, %v, %v)", cut, c,
					got.Makespan(), got.Flowtime(), f, want.Makespan(), want.Flowtime(), cfg.Objective.Of(want))
			}
		}
	}
}

// TestFreshScratchesAreWrittenFirst audits the engine's two pool.Get
// callers (the sequential workspace and the wave executor's per-draw
// workspaces) under every updating discipline. A fresh scratch is
// blank, and any read of a blank State panics, so a run from an empty
// pool proves each scratch is written before it is read. A pool whose
// scratches hold leftover schedules must give the same bytes: nothing a
// scratch held before its first write reaches the result.
func TestFreshScratchesAreWrittenFirst(t *testing.T) {
	in := testInstance(12)
	for _, tc := range []struct {
		name    string
		workers int
		sync    bool
	}{{"sequential", 0, false}, {"parallel-1", 1, false}, {"parallel-2", 2, false}, {"synchronous", 2, true}} {
		cfg := quickCfg()
		cfg.Workers, cfg.Synchronous = tc.workers, tc.sync
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		budget := run.Budget{MaxIterations: 3}
		fresh, freshPop := runFrom(s, in, budget, 5, nil, evalpool.New(in))

		used := evalpool.New(in)
		r := rng.New(9)
		var held []*evalpool.Scratch
		for k := 0; k <= cfg.Recombinations+cfg.Mutations; k++ {
			sc := used.Get()
			sc.St.SetSchedule(schedule.NewRandom(in, r))
			held = append(held, sc)
		}
		for _, sc := range held {
			used.Put(sc)
		}
		res, pop := runFrom(s, in, budget, 5, nil, used)
		if !res.Best.Equal(fresh.Best) || res.Fitness != fresh.Fitness || res.Evals != fresh.Evals {
			t.Fatalf("%s: a pool of used scratches changed the result", tc.name)
		}
		for k := range pop {
			if !pop[k].Equal(freshPop[k]) {
				t.Fatalf("%s: a pool of used scratches changed individual %d", tc.name, k)
			}
		}
	}
}

// runFrom runs s through the resume path from pop (nil for a fresh
// mesh), building each cell with NewState, and returns the result and
// the final population.
func runFrom(s *Scheduler, in *etc.Instance, budget run.Budget, seed uint64, pop []schedule.Schedule, pool *evalpool.Pool) (run.Result, []schedule.Schedule) {
	var states []*schedule.State
	for _, p := range pop {
		states = append(states, schedule.NewState(in, p))
	}
	res, final := s.RunWithStatesPooled(in, budget, seed, nil, states, pool)
	out := make([]schedule.Schedule, len(final))
	for k, st := range final {
		out[k] = st.Schedule()
	}
	return res, out
}
