package island_test

import (
	"testing"
	"time"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/island"
	"gridcma/internal/island/dist"
	"gridcma/internal/localsearch"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func testInstance() *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 2, Jobs: 128, Machs: 8})
}

func fastCfg() island.Config {
	cfg := island.DefaultConfig()
	cfg.Base.LocalSearch = localsearch.SampledLMCTS{Samples: 16}
	cfg.Base.LSIterations = 2
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*island.Config){
		func(c *island.Config) { c.Islands = 1 },
		func(c *island.Config) { c.MigrationEvery = 0 },
		func(c *island.Config) { c.Migrants = 0 },
		func(c *island.Config) { c.Migrants = c.Base.Width * c.Base.Height },
		func(c *island.Config) { c.Base.Width = 0 },
	}
	for i, f := range bad {
		cfg := island.DefaultConfig()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := dist.NewInProcess(cfg); err == nil {
			t.Errorf("case %d accepted by the engine", i)
		}
	}
	if _, err := dist.NewInProcess(island.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestRunImprovesAndIsValid(t *testing.T) {
	in := testInstance()
	s, err := dist.NewInProcess(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(in, run.Budget{MaxIterations: 20}, 1, nil)
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 20 {
		t.Errorf("iterations %d", res.Iterations)
	}
	if res.Algorithm != "IslandCMA(4)" {
		t.Errorf("name %q", res.Algorithm)
	}
	// Should beat its own seed heuristic.
	seedFit := schedule.DefaultObjective.Of(schedule.NewState(in, cma.DefaultConfig().SeedHeuristic(in)))
	if res.Fitness >= seedFit {
		t.Errorf("fitness %v did not beat seed %v", res.Fitness, seedFit)
	}
}

// TestSegmentSharedPoolMatchesPrivate pins the pool contract a run's
// islands and a distributed worker's segments rely on: a segment drawing
// from a shared pool gives the exact result of one with a private pool,
// and a pool bound to another instance is ignored rather than corrupting
// the run.
func TestSegmentSharedPoolMatchesPrivate(t *testing.T) {
	in := testInstance()
	base := fastCfg().Base
	plain, plainPop, _, err := Segment(in, base, 4, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := etc.Generate(etc.Class{}, 0, etc.GenerateOptions{Seed: 9, Jobs: 32, Machs: 4})
	for _, p := range []*evalpool.Pool{evalpool.New(in), evalpool.New(other)} {
		res, pop, _, err := Segment(in, base, 4, 7, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Best.Equal(plain.Best) || res.Fitness != plain.Fitness || len(pop) != len(plainPop) {
			t.Fatalf("pool bound to %dx%d changed the segment result", p.Instance().Jobs, p.Instance().Machs)
		}
		for k := range pop {
			if !pop[k].Equal(plainPop[k]) {
				t.Fatalf("pool bound to %dx%d changed individual %d", p.Instance().Jobs, p.Instance().Machs, k)
			}
		}
	}
}

func TestDeterministicDespiteParallelism(t *testing.T) {
	in := testInstance()
	s, _ := dist.NewInProcess(fastCfg())
	a := s.Run(in, run.Budget{MaxIterations: 15}, 9, nil)
	b := s.Run(in, run.Budget{MaxIterations: 15}, 9, nil)
	if a.Fitness != b.Fitness || !a.Best.Equal(b.Best) {
		t.Fatal("island model not deterministic per seed")
	}
}

func TestMigrationSpreadsBestIndividuals(t *testing.T) {
	in := testInstance()
	cfg := fastCfg()
	// Build synthetic populations: island 0 holds one excellent
	// individual, the rest are terrible everywhere.
	popSize := cfg.Base.Width * cfg.Base.Height
	terrible := make(schedule.Schedule, in.Jobs) // all jobs on machine 0
	good := cma.DefaultConfig().SeedHeuristic(in)
	pops := make([][]schedule.Schedule, cfg.Islands)
	for i := range pops {
		pops[i] = make([]schedule.Schedule, popSize)
		for k := range pops[i] {
			pops[i][k] = terrible.Clone()
		}
	}
	pops[0][3] = good.Clone()
	migrate(in, cfg, pops)
	// Island 1 must now contain the good individual.
	found := false
	for _, p := range pops[1] {
		if p.Equal(good) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("best individual did not migrate to the ring successor")
	}
	// Island 0 must still hold its copy (migration copies, not moves).
	found = false
	for _, p := range pops[0] {
		if p.Equal(good) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("migration removed the emigrant from its home island")
	}
}

func TestTimeBudgetRespected(t *testing.T) {
	in := testInstance()
	s, _ := dist.NewInProcess(fastCfg())
	start := time.Now()
	res := s.Run(in, run.Budget{MaxTime: 200 * time.Millisecond}, 1, nil)
	if time.Since(start) > 3*time.Second {
		t.Fatalf("run overshot its time budget grossly: %v", time.Since(start))
	}
	if res.Best == nil {
		t.Fatal("no result")
	}
}

func TestObserverMonotone(t *testing.T) {
	in := testInstance()
	s, _ := dist.NewInProcess(fastCfg())
	var fits []float64
	s.Run(in, run.Budget{MaxIterations: 20}, 3, func(p run.Progress) {
		fits = append(fits, p.Fitness)
	})
	if len(fits) == 0 {
		t.Fatal("observer never called")
	}
	for i := 1; i < len(fits); i++ {
		if fits[i] > fits[i-1]+1e-9 {
			t.Fatal("ensemble best regressed")
		}
	}
}

func TestIterationBudgetNotExceededPerIsland(t *testing.T) {
	in := testInstance()
	cfg := fastCfg()
	cfg.MigrationEvery = 7
	s, _ := dist.NewInProcess(cfg)
	res := s.Run(in, run.Budget{MaxIterations: 10}, 1, nil) // not a multiple of 7
	if res.Iterations != 10 {
		t.Errorf("iterations %d, want exactly 10 (7 + truncated 3)", res.Iterations)
	}
}

func TestUnboundedBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s, _ := dist.NewInProcess(fastCfg())
	s.Run(testInstance(), run.Budget{}, 1, nil)
}
