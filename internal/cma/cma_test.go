package cma

import (
	"testing"
	"time"

	"gridcma/internal/cell"
	"gridcma/internal/etc"
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
		func(c *Config) { c.Recombinations = -1 },
		func(c *Config) { c.Recombinations = 0; c.Mutations = 0 },
		func(c *Config) { c.SolutionsToRecombine = 1 },
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

// TestRunOnFloat32GenSpec runs the paper's cMA end to end on a streamed
// GenSpec instance with the float32 ETC backing: the reported objectives
// must be those of the returned schedule, the run must be a pure
// function of its seed, and it must not end worse than the LJFR-SJFR
// seed schedule.
func TestRunOnFloat32GenSpec(t *testing.T) {
	g, err := etc.ParseGenSpec("512x32:c_hihi:s1:f32")
	if err != nil {
		t.Fatal(err)
	}
	in, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if in.ETC32 == nil {
		t.Fatal("f32 spec built no float32 backing")
	}
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := s.Run(in, run.Budget{MaxIterations: 3}, 1, nil)
	b := s.Run(in, run.Budget{MaxIterations: 3}, 1, nil)
	if !a.Best.Equal(b.Best) || a.Fitness != b.Fitness || a.Evals != b.Evals {
		t.Fatalf("same seed, different runs: fitness %v vs %v", a.Fitness, b.Fitness)
	}
	st := schedule.NewState(in, a.Best)
	if st.Makespan() != a.Makespan || st.Flowtime() != a.Flowtime {
		t.Fatalf("reported makespan %v flowtime %v, schedule has %v %v",
			a.Makespan, a.Flowtime, st.Makespan(), st.Flowtime())
	}
	seed := schedule.DefaultObjective.Of(schedule.NewState(in, heuristics.LJFRSJFR(in)))
	if a.Fitness > seed {
		t.Fatalf("cMA fitness %v worse than its LJFR-SJFR seed %v", a.Fitness, seed)
	}
}
