package ga

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func testInstance(seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: 96, Machs: 8})
}

func TestAllVariantsRunAndImprove(t *testing.T) {
	in := testInstance(1)
	for _, v := range []Variant{Braun, SteadyState, Struggle} {
		s, err := New(NewConfig(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		iters := 2000
		if v == Braun {
			iters = 60 // generations, each PopSize evals
		}
		res := s.Run(in, run.Budget{MaxIterations: iters}, 42, nil)
		if err := res.Best.Validate(in); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		// Must improve on its own seed's fitness.
		seedFit := schedule.DefaultObjective.Of(schedule.NewState(in, variantParams[v].seed(in)))
		if res.Fitness >= seedFit {
			t.Errorf("%v: fitness %v did not improve on seed %v", v, res.Fitness, seedFit)
		}
		if res.Algorithm != v.String() {
			t.Errorf("%v: algorithm name %q", v, res.Algorithm)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	in := testInstance(2)
	for _, v := range []Variant{Braun, SteadyState, Struggle} {
		s, _ := New(NewConfig(v))
		iters := 300
		if v == Braun {
			iters = 10
		}
		a := s.Run(in, run.Budget{MaxIterations: iters}, 7, nil)
		b := s.Run(in, run.Budget{MaxIterations: iters}, 7, nil)
		if !a.Best.Equal(b.Best) || a.Fitness != b.Fitness {
			t.Errorf("%v: same seed gave different results", v)
		}
	}
}

func TestBestIsMonotone(t *testing.T) {
	in := testInstance(3)
	for _, v := range []Variant{Braun, SteadyState, Struggle} {
		s, _ := New(NewConfig(v))
		var fits []float64
		iters := 200
		if v == Braun {
			iters = 15
		}
		s.Run(in, run.Budget{MaxIterations: iters}, 5, func(p run.Progress) {
			fits = append(fits, p.Fitness)
		})
		for i := 1; i < len(fits); i++ {
			if fits[i] > fits[i-1]+1e-9 {
				t.Fatalf("%v: best regressed at %d", v, i)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Variant = GSA + 1 },
		func(c *Config) { c.Variant = -1 },
		func(c *Config) { c.Objective.Lambda = 2 },
	}
	for i, f := range bad {
		cfg := NewConfig(SteadyState)
		f(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestVariantNames(t *testing.T) {
	if Braun.String() != "BraunGA" || SteadyState.String() != "SteadyStateGA" || Struggle.String() != "StruggleGA" {
		t.Error("variant names wrong")
	}
}

func TestStruggleKeepsMoreDiversityThanSteadyState(t *testing.T) {
	// The struggle replacement is designed to preserve diversity: after
	// the same number of steps, its population should have a higher mean
	// pairwise Hamming distance than replace-worst. This is a statistical
	// property; use a fixed seed and a comfortable margin via final
	// populations reconstructed from multiple runs' bests being distinct.
	in := testInstance(4)
	div := func(v Variant) float64 {
		g := &gaState{in: in, cfg: NewConfig(v), p: variantParams[v], r: rng.New(9)}
		g.init()
		n := v.PopSize()
		indices := make([]int, n)
		for i := range indices {
			indices[i] = i
		}
		for k := 0; k < 1500; k++ {
			g.steadyStep(indices)
		}
		total, pairs := 0, 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				total += g.pop[i].ScheduleView().Hamming(g.pop[j].ScheduleView())
				pairs++
			}
		}
		return float64(total) / float64(pairs)
	}
	ss, st := div(SteadyState), div(Struggle)
	t.Logf("mean pairwise Hamming distance: struggle %.1f, steady-state %.1f", st, ss)
	if st <= ss {
		t.Errorf("struggle diversity %v should exceed steady-state %v", st, ss)
	}
}

func TestBraunElitismPreservesBest(t *testing.T) {
	in := testInstance(5)
	s, _ := New(NewConfig(Braun))
	res1 := s.Run(in, run.Budget{MaxIterations: 5}, 3, nil)
	res2 := s.Run(in, run.Budget{MaxIterations: 25}, 3, nil)
	if res2.Fitness > res1.Fitness {
		t.Errorf("longer run worse than shorter: %v > %v", res2.Fitness, res1.Fitness)
	}
}

func TestUnboundedBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s, _ := New(NewConfig(SteadyState))
	s.Run(testInstance(6), run.Budget{}, 1, nil)
}

func TestGSARunsAndImproves(t *testing.T) {
	in := testInstance(7)
	s, err := New(NewConfig(GSA))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(in, run.Budget{MaxIterations: 3000}, 42, nil)
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	seedFit := schedule.DefaultObjective.Of(schedule.NewState(in, variantParams[GSA].seed(in)))
	if res.Fitness >= seedFit {
		t.Errorf("GSA %v did not improve on Min-Min %v", res.Fitness, seedFit)
	}
	if res.Algorithm != "GSA" {
		t.Errorf("name %q", res.Algorithm)
	}
}

func TestGSADeterministic(t *testing.T) {
	in := testInstance(8)
	s, _ := New(NewConfig(GSA))
	a := s.Run(in, run.Budget{MaxIterations: 500}, 3, nil)
	b := s.Run(in, run.Budget{MaxIterations: 500}, 3, nil)
	if a.Fitness != b.Fitness {
		t.Fatal("GSA not deterministic")
	}
}

// TestFreshScratchIsWrittenFirst audits the GA's pool.Get caller: its
// offspring workspace comes out of a fresh pool blank, and any read of a
// blank State panics, so a run of every variant proves breed writes the
// workspace (SetSchedule or CopyFrom) before anything reads it.
func TestFreshScratchIsWrittenFirst(t *testing.T) {
	in := testInstance(3)
	for _, v := range []Variant{Braun, SteadyState, Struggle, GSA} {
		s, err := New(NewConfig(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res := s.Run(in, run.Budget{MaxIterations: 3}, 8, nil); res.Best.Validate(in) != nil {
			t.Fatalf("%v: invalid best", v)
		}
	}
}
