package schedule

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// diffInstance builds a random instance of the given shape.
func diffInstance(jobs, machs int, seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: jobs, Machs: machs})
}

// applyOfRevertMove is the historical probe: Move, read the fitness,
// Move back. The differential tests pin FitnessAfterMove to its exact
// bits.
func applyOfRevertMove(st *State, o Objective, j, to int) float64 {
	from := st.Assign(j)
	st.Move(j, to)
	f := o.Of(st)
	st.Move(j, from)
	return f
}

func applyOfRevertSwap(st *State, o Objective, a, b int) float64 {
	st.Swap(a, b)
	f := o.Of(st)
	st.Swap(a, b)
	return f
}

// TestFitnessAfterMoveDifferential samples thousands of random moves on
// random instances and asserts the probe equals apply→Of→revert bit for
// bit, including the same-machine no-op edge.
func TestFitnessAfterMoveDifferential(t *testing.T) {
	shapes := []struct{ jobs, machs int }{{8, 1}, {12, 2}, {16, 3}, {64, 8}, {128, 16}, {96, 5}}
	for _, sh := range shapes {
		in := diffInstance(sh.jobs, sh.machs, uint64(41*sh.jobs+int(sh.machs)))
		r := rng.New(uint64(sh.jobs))
		st := NewState(in, NewRandom(in, r))
		o := Objective{Lambda: 0.75}
		for k := 0; k < 3000; k++ {
			j := r.Intn(in.Jobs)
			to := r.Intn(in.Machs) // includes to == Assign(j) no-ops
			// Probe first: the apply/revert reference perturbs the state's
			// running flowtime accumulator in its last ulps (the very
			// artifact the probe path eliminates), so probing after it
			// would compare two different states.
			got := st.FitnessAfterMove(o, j, to)
			want := applyOfRevertMove(st, o, j, to)
			if got != want {
				t.Fatalf("%dx%d probe %d: FitnessAfterMove(%d→%d) = %.17g, apply/revert %.17g",
					sh.jobs, sh.machs, k, j, to, got, want)
			}
			// Keep the walk moving so probes cover many states.
			if k%7 == 0 {
				st.Move(j, to)
			}
		}
	}
}

// TestFitnessAfterSwapDifferential is the swap-side differential,
// including same-machine and a==b no-op edges.
func TestFitnessAfterSwapDifferential(t *testing.T) {
	shapes := []struct{ jobs, machs int }{{12, 2}, {16, 3}, {64, 8}, {128, 16}}
	for _, sh := range shapes {
		in := diffInstance(sh.jobs, sh.machs, uint64(97*sh.jobs+int(sh.machs)))
		r := rng.New(uint64(sh.machs) + 5)
		st := NewState(in, NewRandom(in, r))
		o := Objective{Lambda: 0.75}
		for k := 0; k < 3000; k++ {
			a := r.Intn(in.Jobs)
			b := r.Intn(in.Jobs)                // includes a == b and same-machine pairs
			got := st.FitnessAfterSwap(o, a, b) // probe first, see above
			want := applyOfRevertSwap(st, o, a, b)
			if got != want {
				t.Fatalf("%dx%d probe %d: FitnessAfterSwap(%d,%d) = %.17g, apply/revert %.17g",
					sh.jobs, sh.machs, k, a, b, got, want)
			}
			if k%5 == 0 {
				st.Swap(a, b)
			}
		}
	}
}

// TestProbesDoNotMutate asserts a probe leaves every observable quantity
// of the state untouched.
func TestProbesDoNotMutate(t *testing.T) {
	in := diffInstance(64, 8, 3)
	r := rng.New(11)
	st := NewState(in, NewRandom(in, r))
	o := DefaultObjective
	before := st.Clone()
	for k := 0; k < 500; k++ {
		st.FitnessAfterMove(o, r.Intn(in.Jobs), r.Intn(in.Machs))
		st.FitnessAfterSwap(o, r.Intn(in.Jobs), r.Intn(in.Jobs))
	}
	if st.Makespan() != before.Makespan() || st.Flowtime() != before.Flowtime() {
		t.Fatal("probe mutated makespan/flowtime")
	}
	for m := 0; m < in.Machs; m++ {
		if st.Completion(m) != before.Completion(m) {
			t.Fatalf("probe mutated completion of machine %d", m)
		}
	}
	if !st.Schedule().Equal(before.Schedule()) {
		t.Fatal("probe mutated the schedule")
	}
}

// TestProbesAllocationFree guards the allocation-free property of the
// probe path (also enforced in CI through the probe benchmarks).
func TestProbesAllocationFree(t *testing.T) {
	in := diffInstance(128, 16, 9)
	r := rng.New(2)
	st := NewState(in, NewRandom(in, r))
	o := DefaultObjective
	j, to := 5, (st.Assign(5)+1)%in.Machs
	a := 7
	b := 0
	for st.Assign(b) == st.Assign(a) {
		b++
	}
	if n := testing.AllocsPerRun(200, func() {
		st.FitnessAfterMove(o, j, to)
	}); n != 0 {
		t.Fatalf("FitnessAfterMove allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		st.FitnessAfterSwap(o, a, b)
	}); n != 0 {
		t.Fatalf("FitnessAfterSwap allocates %v per op", n)
	}
}

// TestMakespanMachineTieBreak pins the documented tie-breaking contract:
// among machines sharing the maximal completion time, the lowest index
// wins. LMCTS picks its critical machine through this, so changing the
// tie-break would silently change the tuned search's trajectory.
func TestMakespanMachineTieBreak(t *testing.T) {
	in := etc.New("tie", 4, 4)
	for j := 0; j < 4; j++ {
		for m := 0; m < 4; m++ {
			in.Set(j, m, 100) // any one-job machine completes at 100
		}
	}
	in.Finalize()
	st := NewState(in, Schedule{0, 1, 2, 3}) // four-way tie
	if got := st.MakespanMachine(); got != 0 {
		t.Fatalf("four-way tie: MakespanMachine = %d, want 0", got)
	}
	// Knock machine 0 below the tie: lowest *remaining* index must win.
	st.Move(0, 1) // machine 0 empty; machine 1 completes at 200
	if got := st.MakespanMachine(); got != 1 {
		t.Fatalf("after move: MakespanMachine = %d, want 1", got)
	}
	st.Move(3, 2) // machines 1 and 2 both complete at 200
	if got := st.MakespanMachine(); got != 1 {
		t.Fatalf("two-way tie: MakespanMachine = %d, want 1", got)
	}
	if st.Makespan() != 200 {
		t.Fatalf("makespan %v, want 200", st.Makespan())
	}
}

// TestMakespanExcluding checks the tournament tree's exclusion query (the
// one behind the speculative fitness probes) against a linear scan
// after a random walk of moves.
func TestMakespanExcluding(t *testing.T) {
	in := diffInstance(48, 7, 13)
	r := rng.New(3)
	st := NewState(in, NewRandom(in, r))
	for k := 0; k < 200; k++ {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		ex := r.Intn(in.Machs)
		want := -1.0
		for m := 0; m < in.Machs; m++ {
			if m != ex && st.Completion(m) > want {
				want = st.Completion(m)
			}
		}
		if got := st.top.maxExcluding(ex); got != want {
			t.Fatalf("step %d: maxExcluding(%d) = %v, scan %v", k, ex, got, want)
		}
	}
}
