package schedule

import (
	"math"
	"testing"
	"testing/quick"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// tiny returns a hand-checkable 3-job, 2-machine instance.
//
//	       m0  m1
//	job0    2   4
//	job1    6   3
//	job2    5   5
func tiny(t *testing.T) *etc.Instance {
	t.Helper()
	in := etc.New("tiny", 3, 2)
	in.Set(0, 0, 2)
	in.Set(0, 1, 4)
	in.Set(1, 0, 6)
	in.Set(1, 1, 3)
	in.Set(2, 0, 5)
	in.Set(2, 1, 5)
	in.Finalize()
	return in
}

func randInstance(seed uint64, jobs, machs int) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: jobs, Machs: machs})
}

func TestStateHandEvaluated(t *testing.T) {
	in := tiny(t)
	// job0 -> m0, job1 -> m1, job2 -> m0.
	st := NewState(in, Schedule{0, 1, 0})
	// m0 runs job0 (2) then job2 (5): completion 7, flow 2+7=9.
	// m1 runs job1 (3): completion 3, flow 3.
	if got := st.Completion(0); got != 7 {
		t.Errorf("completion[0] = %v, want 7", got)
	}
	if got := st.Completion(1); got != 3 {
		t.Errorf("completion[1] = %v, want 3", got)
	}
	if got := st.Makespan(); got != 7 {
		t.Errorf("makespan = %v, want 7", got)
	}
	if got := st.Flowtime(); got != 12 {
		t.Errorf("flowtime = %v, want 12", got)
	}
	if got := st.MeanFlowtime(); got != 6 {
		t.Errorf("mean flowtime = %v, want 6", got)
	}
	if got := st.MakespanMachine(); got != 0 {
		t.Errorf("makespan machine = %d, want 0", got)
	}
	o := Objective{Lambda: 0.75}
	if got, want := o.Of(st), 0.75*7+0.25*6; math.Abs(got-want) > 1e-12 {
		t.Errorf("fitness = %v, want %v", got, want)
	}
}

func TestStateRespectsReadyTimes(t *testing.T) {
	in := tiny(t)
	in.Ready[0] = 10
	st := NewState(in, Schedule{0, 1, 0})
	if got := st.Completion(0); got != 17 {
		t.Errorf("completion[0] = %v, want 17", got)
	}
	// flow on m0: finishes at 12 (job0) and 17 (job2) -> 29; m1: 3.
	if got := st.Flowtime(); got != 32 {
		t.Errorf("flowtime = %v, want 32", got)
	}
}

func TestSPTOrderMinimisesFlowtime(t *testing.T) {
	in := tiny(t)
	st := NewState(in, Schedule{0, 0, 0}) // all on m0: 2,5,6 in SPT order
	// finishes: 2, 7, 13 -> flowtime 22. Any other order is worse.
	if got := st.Flowtime(); got != 22 {
		t.Errorf("flowtime = %v, want 22 (SPT)", got)
	}
	jobs := st.JobsOn(0)
	want := []int32{0, 2, 1}
	for i, j := range jobs {
		if j != want[i] {
			t.Fatalf("SPT order %v, want %v", jobs, want)
		}
	}
}

func TestMoveMatchesRebuild(t *testing.T) {
	in := randInstance(1, 60, 6)
	r := rng.New(2)
	st := NewState(in, NewRandom(in, r))
	for step := 0; step < 300; step++ {
		j, m := r.Intn(in.Jobs), r.Intn(in.Machs)
		st.Move(j, m)
		if st.Assign(j) != m {
			t.Fatalf("step %d: assign not updated", step)
		}
	}
	fresh := NewState(in, st.Schedule())
	assertStatesEqual(t, st, fresh)
}

func TestSwapMatchesRebuild(t *testing.T) {
	in := randInstance(3, 60, 6)
	r := rng.New(4)
	st := NewState(in, NewRandom(in, r))
	for step := 0; step < 300; step++ {
		a, b := r.Intn(in.Jobs), r.Intn(in.Jobs)
		st.Swap(a, b)
	}
	fresh := NewState(in, st.Schedule())
	assertStatesEqual(t, st, fresh)
}

// approx compares with a relative tolerance: the O(1) delta predictions sum
// floats in a different order than a fresh rebuild, so last-ulp differences
// are expected.
func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func assertStatesEqual(t *testing.T, a, b *State) {
	t.Helper()
	const eps = 1e-6
	for m := 0; m < a.inst.Machs; m++ {
		if math.Abs(a.Completion(m)-b.Completion(m)) > eps {
			t.Fatalf("completion[%d]: %v vs %v", m, a.Completion(m), b.Completion(m))
		}
	}
	if math.Abs(a.Flowtime()-b.Flowtime()) > eps*math.Max(1, b.Flowtime()) {
		t.Fatalf("flowtime drifted: %v vs %v", a.Flowtime(), b.Flowtime())
	}
	if math.Abs(a.Makespan()-b.Makespan()) > eps {
		t.Fatalf("makespan: %v vs %v", a.Makespan(), b.Makespan())
	}
}

func TestMoveToSameMachineIsNoop(t *testing.T) {
	in := tiny(t)
	st := NewState(in, Schedule{0, 1, 0})
	before := st.Flowtime()
	st.Move(0, 0)
	if st.Flowtime() != before {
		t.Fatal("no-op move changed flowtime")
	}
	st.Swap(0, 2) // both on m0
	if st.Flowtime() != before {
		t.Fatal("same-machine swap changed flowtime")
	}
}

// completionAfterSwap returns, in O(1), the completion times machines of
// a and b would have after swapping the two jobs, which must sit on
// different machines: the scalar pair query the swap scans are tested
// against.
func (st *State) completionAfterSwap(a, b int) (aC, bC float64) {
	ma, mb := st.assign[a], st.assign[b]
	ea, eb := st.inst.At(a, ma), st.inst.At(b, mb)
	return st.completion[ma] - ea + st.inst.At(b, ma),
		st.completion[mb] - eb + st.inst.At(a, mb)
}

func TestCompletionAfterSwap(t *testing.T) {
	in := randInstance(7, 40, 5)
	r := rng.New(8)
	st := NewState(in, NewRandom(in, r))
	for k := 0; k < 200; k++ {
		a, b := r.Intn(in.Jobs), r.Intn(in.Jobs)
		ma, mb := st.Assign(a), st.Assign(b)
		if ma == mb {
			continue
		}
		aC, bC := st.completionAfterSwap(a, b)
		cp := st.Clone()
		cp.Swap(a, b)
		if !approx(cp.Completion(ma), aC) || !approx(cp.Completion(mb), bC) {
			t.Fatalf("swap prediction wrong")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	in := tiny(t)
	st := NewState(in, Schedule{0, 1, 0})
	cp := st.Clone()
	cp.Move(0, 1)
	if st.Assign(0) != 0 {
		t.Fatal("Clone shares assignment storage")
	}
	if st.Flowtime() == cp.Flowtime() {
		t.Fatal("move on clone should change flowtime")
	}
}

func TestCopyFrom(t *testing.T) {
	in := randInstance(9, 30, 4)
	r := rng.New(10)
	a := NewState(in, NewRandom(in, r))
	b := NewState(in, NewRandom(in, r))
	b.CopyFrom(a)
	assertStatesEqual(t, a, b)
	b.Move(0, (a.Assign(0)+1)%in.Machs)
	if a.Assign(0) == b.Assign(0) {
		t.Fatal("CopyFrom aliased storage")
	}
}

func TestSetScheduleReusesBuffers(t *testing.T) {
	in := randInstance(11, 30, 4)
	r := rng.New(12)
	st := NewState(in, NewRandom(in, r))
	s2 := NewRandom(in, r)
	st.SetSchedule(s2)
	fresh := NewState(in, s2)
	assertStatesEqual(t, st, fresh)
}

func TestHamming(t *testing.T) {
	a := Schedule{0, 1, 2, 3}
	b := Schedule{0, 1, 2, 3}
	if d := a.Hamming(b); d != 0 {
		t.Errorf("identical distance %d", d)
	}
	b[0], b[3] = 9, 9
	if d := a.Hamming(b); d != 2 {
		t.Errorf("distance %d, want 2", d)
	}
	if !a.Equal(Schedule{0, 1, 2, 3}) || a.Equal(b) {
		t.Error("Equal wrong")
	}
	if a.Equal(Schedule{0, 1}) {
		t.Error("Equal must compare lengths")
	}
}

func TestValidate(t *testing.T) {
	in := tiny(t)
	if err := (Schedule{0, 1}).Validate(in); err == nil {
		t.Error("short schedule accepted")
	}
	if err := (Schedule{0, 1, 5}).Validate(in); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if err := (Schedule{0, 1, 1}).Validate(in); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestPerturbChangesSomething(t *testing.T) {
	in := randInstance(13, 100, 8)
	r := rng.New(14)
	s := NewRandom(in, r)
	orig := s.Clone()
	Perturb(s, in, r, 0.5)
	if s.Equal(orig) {
		t.Fatal("Perturb(0.5) left schedule unchanged (astronomically unlikely)")
	}
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// Property: after any random sequence of moves and swaps, the incremental
// state matches a from-scratch evaluation.
func TestIncrementalMatchesFullProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in := randInstance(seed, 24, 4)
		r := rng.New(seed ^ 0xabcdef)
		st := NewState(in, NewRandom(in, r))
		for k := 0; k < 50; k++ {
			if r.Bool(0.5) {
				st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
			} else {
				st.Swap(r.Intn(in.Jobs), r.Intn(in.Jobs))
			}
		}
		fresh := NewState(in, st.Schedule())
		return math.Abs(st.Flowtime()-fresh.Flowtime()) < 1e-6*math.Max(1, fresh.Flowtime()) &&
			math.Abs(st.Makespan()-fresh.Makespan()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: makespan is always >= flowtime / jobs (mean finishing time of a
// single job cannot exceed the latest finishing time) and every completion
// is <= makespan.
func TestObjectiveInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in := randInstance(seed, 32, 5)
		r := rng.New(seed + 1)
		st := NewState(in, NewRandom(in, r))
		ms := st.Makespan()
		for m := 0; m < in.Machs; m++ {
			if st.Completion(m) > ms+1e-9 {
				return false
			}
		}
		return st.Flowtime() <= float64(in.Jobs)*ms+1e-6 && st.Flowtime() >= ms-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMove(b *testing.B) {
	in := randInstance(1, 512, 16)
	r := rng.New(2)
	st := NewState(in, NewRandom(in, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Move(r.Intn(512), r.Intn(16))
	}
}

func BenchmarkSwap(b *testing.B) {
	in := randInstance(1, 512, 16)
	r := rng.New(2)
	st := NewState(in, NewRandom(in, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Swap(r.Intn(512), r.Intn(512))
	}
}

func BenchmarkEvalIncrementalVsFull(b *testing.B) {
	in := randInstance(1, 512, 16)
	r := rng.New(2)
	b.Run("incremental-move", func(b *testing.B) {
		st := NewState(in, NewRandom(in, r))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Move(r.Intn(512), r.Intn(16))
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		s := NewRandom(in, r)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s[r.Intn(512)] = r.Intn(16)
			_ = NewState(in, s)
		}
	})
}
