package localsearch

import (
	"testing"
	"testing/quick"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

func testInstance(seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: 64, Machs: 8})
}

func allMethods() []Method {
	return []Method{LM{}, SLM{}, LMCTS{}, SampledLMCTS{Samples: 16}, Chain{LM{}, LMCTS{}}, None{}}
}

func TestNeverWorsens(t *testing.T) {
	o := schedule.DefaultObjective
	for _, m := range allMethods() {
		in := testInstance(1)
		r := rng.New(2)
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		before := o.Of(st)
		m.Improve(st, o, 10, r)
		if after := o.Of(st); after > before+1e-9 {
			t.Errorf("%s worsened fitness %v -> %v", m.Name(), before, after)
		}
		if err := st.Schedule().Validate(in); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestMethodsActuallyImprove(t *testing.T) {
	// From a random schedule on a 512×16 instance, each non-trivial method
	// with a generous budget must find at least one improvement.
	o := schedule.DefaultObjective
	in := etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 3})
	for _, m := range []Method{LM{}, SLM{}, LMCTS{}, SampledLMCTS{Samples: 64}} {
		r := rng.New(4)
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		before := o.Of(st)
		m.Improve(st, o, 50, r)
		if after := o.Of(st); after >= before {
			t.Errorf("%s found no improvement from random (%v -> %v)", m.Name(), before, after)
		}
	}
}

func TestLMCTSReducesMakespan(t *testing.T) {
	in := testInstance(5)
	r := rng.New(6)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	before := st.Makespan()
	LMCTS{}.Improve(st, schedule.DefaultObjective, 30, r)
	if st.Makespan() >= before {
		t.Errorf("LMCTS did not reduce makespan from random: %v -> %v", before, st.Makespan())
	}
}

func TestLMCTSStopsAtLocalOptimum(t *testing.T) {
	// Asking for a huge budget on a small instance must terminate (the
	// method returns when no improving swap exists).
	in := etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.Low},
		0, etc.GenerateOptions{Seed: 7, Jobs: 16, Machs: 4})
	r := rng.New(8)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	LMCTS{}.Improve(st, schedule.DefaultObjective, 1_000_000, r)
	// Reaching here within test timeout is the assertion; also verify a
	// second call changes nothing.
	fit := schedule.DefaultObjective.Of(st)
	LMCTS{}.Improve(st, schedule.DefaultObjective, 10, r)
	if got := schedule.DefaultObjective.Of(st); got != fit {
		t.Errorf("second LMCTS call changed fitness at local optimum: %v -> %v", fit, got)
	}
}

func TestSLMBeatsLMPerIteration(t *testing.T) {
	// With the same tiny iteration budget, steepest moves should do at
	// least as well as random moves on average over seeds.
	o := schedule.DefaultObjective
	var lmSum, slmSum float64
	for seed := uint64(0); seed < 10; seed++ {
		in := testInstance(seed)
		start := schedule.NewRandom(in, rng.New(seed))
		a := schedule.NewState(in, start)
		LM{}.Improve(a, o, 10, rng.New(seed+100))
		lmSum += o.Of(a)
		b := schedule.NewState(in, start)
		SLM{}.Improve(b, o, 10, rng.New(seed+100))
		slmSum += o.Of(b)
	}
	if slmSum > lmSum {
		t.Errorf("SLM (%v) should beat LM (%v) per iteration on average", slmSum, lmSum)
	}
}

func TestNoneIsIdentity(t *testing.T) {
	in := testInstance(9)
	r := rng.New(10)
	s := schedule.NewRandom(in, r)
	st := schedule.NewState(in, s)
	None{}.Improve(st, schedule.DefaultObjective, 100, r)
	if !st.Schedule().Equal(s) {
		t.Fatal("None modified the schedule")
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, n := range []string{"LM", "SLM", "LMCTS", "LMCTS-sampled", "VND", "none"} {
		m, err := ByName(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if n != "none" && m.Name() != n && n != "VND" {
			t.Errorf("ByName(%q).Name() = %q", n, m.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("expected error")
	}
}

func TestChainSplitsBudget(t *testing.T) {
	in := testInstance(11)
	r := rng.New(12)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	o := schedule.DefaultObjective
	before := o.Of(st)
	Chain{LM{}, SLM{}, LMCTS{}}.Improve(st, o, 9, r)
	if o.Of(st) > before {
		t.Error("chain worsened fitness")
	}
	// Empty chain must be a no-op.
	Chain{}.Improve(st, o, 9, r)
	if got := (Chain{LM{}, LMCTS{}}).Name(); got != "Chain(LM+LMCTS)" {
		t.Errorf("chain name %q", got)
	}
}

func TestSampledLMCTSDefaultSamples(t *testing.T) {
	in := testInstance(13)
	r := rng.New(14)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	SampledLMCTS{}.Improve(st, schedule.DefaultObjective, 5, r) // Samples=0 -> default
	if err := st.Schedule().Validate(in); err != nil {
		t.Fatal(err)
	}
}

// Property: Improve never increases fitness for any method/seed.
func TestImproveMonotoneProperty(t *testing.T) {
	o := schedule.DefaultObjective
	methods := allMethods()
	f := func(seed uint64, mIdx uint8, iters uint8) bool {
		in := testInstance(seed % 8)
		r := rng.New(seed)
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		before := o.Of(st)
		methods[int(mIdx)%len(methods)].Improve(st, o, int(iters%20), r)
		return o.Of(st) <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLMCTS512(b *testing.B) {
	in := etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1})
	r := rng.New(2)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LMCTS{}.Improve(st, schedule.DefaultObjective, 1, r)
	}
}

func BenchmarkSampledLMCTS512(b *testing.B) {
	in := etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1})
	r := rng.New(2)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampledLMCTS{Samples: 64}.Improve(st, schedule.DefaultObjective, 1, r)
	}
}
