package sa

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/heuristics"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func testInstance(seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: 96, Machs: 8})
}

func TestRunImprovesOnSeed(t *testing.T) {
	in := testInstance(1)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(in, run.Budget{MaxIterations: 60}, 42, nil)
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	seedFit := schedule.DefaultObjective.Of(schedule.NewState(in, heuristics.MinMin(in)))
	if res.Fitness >= seedFit {
		t.Errorf("SA %v did not improve on Min-Min %v", res.Fitness, seedFit)
	}
}

func TestDeterministic(t *testing.T) {
	in := testInstance(2)
	s, _ := New(DefaultConfig())
	a := s.Run(in, run.Budget{MaxIterations: 20}, 7, nil)
	b := s.Run(in, run.Budget{MaxIterations: 20}, 7, nil)
	if !a.Best.Equal(b.Best) {
		t.Fatal("same seed, different results")
	}
}

func TestBestMonotoneUnderObserver(t *testing.T) {
	in := testInstance(4)
	s, _ := New(DefaultConfig())
	var fits []float64
	s.Run(in, run.Budget{MaxIterations: 30}, 5, func(p run.Progress) {
		fits = append(fits, p.Fitness)
	})
	for i := 1; i < len(fits); i++ {
		if fits[i] > fits[i-1]+1e-9 {
			t.Fatal("best fitness regressed")
		}
	}
}

// TestSweepProposalsRunAndImprove covers the sweep-native proposal
// distribution (the "sa-sweep" registry gate): it must run, never return
// a best worse than the seed, report its own name, and be deterministic
// in the seed.
func TestSweepProposalsRunAndImprove(t *testing.T) {
	in := testInstance(11)
	cfg := DefaultConfig()
	cfg.SweepProposals = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SA-sweep" {
		t.Fatalf("Name() = %q", s.Name())
	}
	seedFit := schedule.DefaultObjective.Of(schedule.NewState(in, heuristics.MinMin(in)))
	a := s.Run(in, run.Budget{MaxIterations: 20}, 5, nil)
	b := s.Run(in, run.Budget{MaxIterations: 20}, 5, nil)
	if a.Fitness > seedFit {
		t.Fatalf("best %v worse than seed %v", a.Fitness, seedFit)
	}
	if !a.Best.Equal(b.Best) || a.Fitness != b.Fitness {
		t.Fatal("sweep annealer not deterministic in the seed")
	}
	if a.Algorithm != "SA-sweep" {
		t.Fatalf("result algorithm %q", a.Algorithm)
	}
	if a.Evals < int64(20*len(a.Best)) { // sweep steps score M-1 targets each
		t.Fatalf("suspiciously few evals: %d", a.Evals)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Objective: schedule.Objective{Lambda: -1}},
		{Objective: schedule.Objective{Lambda: 1.5}, SweepProposals: true},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUnboundedBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s, _ := New(DefaultConfig())
	s.Run(testInstance(5), run.Budget{}, 1, nil)
}
