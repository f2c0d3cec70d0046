package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/localsearch"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func TestDominates(t *testing.T) {
	a := Vec{Makespan: 1, Flowtime: 1}
	b := Vec{Makespan: 2, Flowtime: 2}
	c := Vec{Makespan: 1, Flowtime: 2}
	d := Vec{Makespan: 2, Flowtime: 1}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Error("strict dominance wrong")
	}
	if !a.Dominates(c) || !a.Dominates(d) {
		t.Error("weak-strict dominance wrong")
	}
	if c.Dominates(d) || d.Dominates(c) {
		t.Error("incomparable points must not dominate")
	}
	if a.Dominates(a) {
		t.Error("a point must not dominate itself")
	}
}

func TestDominanceProperties(t *testing.T) {
	f := func(m1, f1, m2, f2 uint16) bool {
		a := Vec{Makespan: float64(m1), Flowtime: float64(f1)}
		b := Vec{Makespan: float64(m2), Flowtime: float64(f2)}
		// Antisymmetry: both cannot dominate each other.
		return !(a.Dominates(b) && b.Dominates(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sched(n int) schedule.Schedule { return make(schedule.Schedule, n) }

func TestFrontKeepsNonDominated(t *testing.T) {
	f := NewFront(10)
	if !f.Add(sched(4), Vec{10, 100}) {
		t.Fatal("first add rejected")
	}
	if !f.Add(sched(4), Vec{20, 50}) {
		t.Fatal("incomparable add rejected")
	}
	if f.Add(sched(4), Vec{25, 60}) {
		t.Fatal("dominated add accepted")
	}
	if f.Add(sched(4), Vec{10, 100}) {
		t.Fatal("duplicate add accepted")
	}
	if !f.Add(sched(4), Vec{5, 40}) {
		t.Fatal("dominating add rejected")
	}
	// {5,40} dominates both previous points: front collapses to 1.
	if f.Len() != 1 {
		t.Fatalf("front size %d, want 1", f.Len())
	}
}

func TestFrontSolutionsSorted(t *testing.T) {
	f := NewFront(10)
	f.Add(sched(2), Vec{30, 10})
	f.Add(sched(2), Vec{10, 30})
	f.Add(sched(2), Vec{20, 20})
	sols := f.Solutions()
	for i := 1; i < len(sols); i++ {
		if sols[i].Obj.Makespan < sols[i-1].Obj.Makespan {
			t.Fatal("not sorted by makespan")
		}
	}
}

func TestFrontCapacityEvictsInterior(t *testing.T) {
	f := NewFront(3)
	f.Add(sched(2), Vec{1, 100})
	f.Add(sched(2), Vec{100, 1})
	f.Add(sched(2), Vec{50, 50})
	f.Add(sched(2), Vec{30, 70}) // 4th point: one interior point must go
	if f.Len() != 3 {
		t.Fatalf("front size %d, want 3", f.Len())
	}
	// Extremes must survive crowding eviction.
	sols := f.Solutions()
	if !sols[0].Obj.Equal(Vec{1, 100}) || !sols[len(sols)-1].Obj.Equal(Vec{100, 1}) {
		t.Fatalf("extremes evicted: %+v", sols)
	}
}

func TestFrontMutualNonDominationInvariant(t *testing.T) {
	f := NewFront(20)
	r := func(seed uint64) func() float64 {
		x := seed
		return func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>40) / float64(1<<24)
		}
	}(7)
	for k := 0; k < 300; k++ {
		f.Add(sched(2), Vec{Makespan: r() * 100, Flowtime: r() * 100})
	}
	sols := f.Solutions()
	for i := range sols {
		for j := range sols {
			if i != j && sols[i].Obj.Dominates(sols[j].Obj) {
				t.Fatalf("archived %v dominates archived %v", sols[i].Obj, sols[j].Obj)
			}
		}
	}
	if f.Len() > 20 {
		t.Fatal("capacity exceeded")
	}
}

func TestFrontClonesSchedules(t *testing.T) {
	f := NewFront(4)
	s := schedule.Schedule{1, 2, 3}
	f.Add(s, Vec{1, 1})
	s[0] = 99
	if f.Solutions()[0].Schedule[0] == 99 {
		t.Fatal("front aliases caller's schedule")
	}
}

func TestHypervolume(t *testing.T) {
	f := NewFront(10)
	f.Add(sched(2), Vec{2, 6})
	f.Add(sched(2), Vec{4, 4})
	f.Add(sched(2), Vec{6, 2})
	ref := Vec{10, 10}
	// Rectangles right-to-left: (10-6)*(10-2)=32, (6-4)*(10-4)=12, (4-2)*(10-6)=8 -> 52.
	if hv := f.Hypervolume(ref); math.Abs(hv-52) > 1e-9 {
		t.Fatalf("hypervolume %v, want 52", hv)
	}
	// A point outside the reference box contributes nothing.
	g := NewFront(10)
	g.Add(sched(2), Vec{20, 1})
	if hv := g.Hypervolume(ref); hv != 0 {
		t.Fatalf("outside point contributed %v", hv)
	}
}

func testInstance() *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 5, Jobs: 96, Machs: 8})
}

func fastBase() cma.Config {
	cfg := cma.DefaultConfig()
	cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 16}
	cfg.LSIterations = 2
	return cfg
}

func TestLambdaSweepProducesFront(t *testing.T) {
	in := testInstance()
	front, err := LambdaSweep(in, fastBase(), []float64{0, 0.25, 0.5, 0.75, 1},
		run.Budget{MaxIterations: 10}, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The two objectives are strongly correlated on this benchmark (the
	// paper optimises them jointly for that reason), so the merged front
	// may legitimately collapse to few points — but never be empty, and
	// every archived schedule must be valid and mutually non-dominated.
	if front.Len() < 1 {
		t.Fatal("empty front")
	}
	sols := front.Solutions()
	for i, s := range sols {
		if err := s.Schedule.Validate(in); err != nil {
			t.Fatal(err)
		}
		for j := range sols {
			if i != j && sols[i].Obj.Dominates(sols[j].Obj) {
				t.Fatal("front not mutually non-dominated")
			}
		}
	}
}

func TestLambdaSweepValidation(t *testing.T) {
	in := testInstance()
	if _, err := LambdaSweep(in, fastBase(), nil, run.Budget{MaxIterations: 1}, 1, 10); err == nil {
		t.Error("empty lambda grid accepted")
	}
	if _, err := LambdaSweep(in, fastBase(), []float64{2}, run.Budget{MaxIterations: 1}, 1, 10); err == nil {
		t.Error("lambda out of range accepted")
	}
}
