package tabu

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/heuristics"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func testInstance(seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.SemiConsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: 96, Machs: 8})
}

func TestRunImprovesOnSeed(t *testing.T) {
	in := testInstance(1)
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(in, run.Budget{MaxIterations: 300}, 42, nil)
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	seedFit := schedule.DefaultObjective.Of(schedule.NewState(in, heuristics.MinMin(in)))
	if res.Fitness >= seedFit {
		t.Errorf("tabu %v did not improve on Min-Min %v", res.Fitness, seedFit)
	}
}

func TestDeterministic(t *testing.T) {
	in := testInstance(2)
	s, _ := New(DefaultConfig())
	a := s.Run(in, run.Budget{MaxIterations: 100}, 7, nil)
	b := s.Run(in, run.Budget{MaxIterations: 100}, 7, nil)
	if !a.Best.Equal(b.Best) {
		t.Fatal("same seed, different results")
	}
}

func TestTabuListBlocksImmediateReversal(t *testing.T) {
	// Indirect but deterministic check: with a tenure (4000/4 steps)
	// longer than the run, every reversed move stays tabu to the end,
	// and the search must still make progress (aspiration) and never
	// crash.
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.Low, MachineHet: etc.Low},
		0, etc.GenerateOptions{Seed: 3, Jobs: 4000, Machs: 4})
	s, _ := New(DefaultConfig())
	res := s.Run(in, run.Budget{MaxIterations: 200}, 5, nil)
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestBestMonotone(t *testing.T) {
	in := testInstance(4)
	s, _ := New(DefaultConfig())
	var fits []float64
	s.Run(in, run.Budget{MaxIterations: 150}, 5, func(p run.Progress) {
		fits = append(fits, p.Fitness)
	})
	for i := 1; i < len(fits); i++ {
		if fits[i] > fits[i-1]+1e-9 {
			t.Fatal("best fitness regressed")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for i, cfg := range []Config{
		{Objective: schedule.Objective{Lambda: -1}},
		{Objective: schedule.Objective{Lambda: 7}},
	} {
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
