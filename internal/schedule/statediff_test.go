package schedule

import (
	"math"
	"slices"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// diffTestInstance builds a small instance; integer ETC values make float
// ties common, so the bit-identity claims are exercised where they are
// hardest.
func diffTestInstance(jobs, machs int, seed uint64) *etc.Instance {
	r := rng.New(seed)
	in := etc.New("diff-test", jobs, machs)
	for j := 0; j < jobs; j++ {
		for m := 0; m < machs; m++ {
			in.Set(j, m, float64(1+r.Intn(40)))
		}
	}
	in.Finalize()
	return in
}

// requireStateEqual compares every value-bearing field of two states bit
// for bit (the epoch and the machine versions are allowed to differ —
// that is the point of the diff path).
func requireStateEqual(t *testing.T, got, want *State) {
	t.Helper()
	if !got.assign.Equal(want.assign) {
		t.Fatalf("assign differs")
	}
	if math.Float64bits(got.Makespan()) != math.Float64bits(want.Makespan()) {
		t.Fatalf("makespan bits differ: %v vs %v", got.Makespan(), want.Makespan())
	}
	if got.MakespanMachine() != want.MakespanMachine() {
		t.Fatalf("makespan machine differs: %d vs %d", got.MakespanMachine(), want.MakespanMachine())
	}
	if math.Float64bits(got.Flowtime()) != math.Float64bits(want.Flowtime()) {
		t.Fatalf("flowtime bits differ: %v vs %v", got.Flowtime(), want.Flowtime())
	}
	for m := range got.machJobs {
		if math.Float64bits(got.completion[m]) != math.Float64bits(want.completion[m]) {
			t.Fatalf("machine %d completion bits differ", m)
		}
		if math.Float64bits(got.machFlow[m]) != math.Float64bits(want.machFlow[m]) {
			t.Fatalf("machine %d flow bits differ", m)
		}
		gj, wj := got.machJobs[m], want.machJobs[m]
		if len(gj) != len(wj) {
			t.Fatalf("machine %d list length differs: %d vs %d", m, len(gj), len(wj))
		}
		for k := range gj {
			if gj[k] != wj[k] {
				t.Fatalf("machine %d slot %d differs: %d vs %d", m, k, gj[k], wj[k])
			}
			if math.Float64bits(got.machCumC[m][k]) != math.Float64bits(want.machCumC[m][k]) {
				t.Fatalf("machine %d cumC[%d] bits differ", m, k)
			}
			if math.Float64bits(got.machCumF[m][k]) != math.Float64bits(want.machCumF[m][k]) {
				t.Fatalf("machine %d cumF[%d] bits differ", m, k)
			}
		}
	}
	for j := range got.slot {
		if got.slot[j] != want.slot[j] {
			t.Fatalf("slot[%d] differs: %d vs %d", j, got.slot[j], want.slot[j])
		}
	}
}

// TestSetScheduleDiffMatchesSetSchedule is the differential pin: applying
// a random sequence of schedule replacements through SetScheduleDiff
// yields exactly the value state SetSchedule produces, including every
// float bit the probes later reuse, across perturbation sizes from one
// job to a full rewrite.
func TestSetScheduleDiffMatchesSetSchedule(t *testing.T) {
	for _, dims := range []struct{ jobs, machs int }{{24, 4}, {96, 8}, {200, 16}} {
		in := diffTestInstance(dims.jobs, dims.machs, uint64(dims.jobs))
		r := rng.New(7)
		cur := NewRandom(in, r)
		diffSt := NewState(in, cur)
		fullSt := NewState(in, cur)
		for step := 0; step < 60; step++ {
			next := diffSt.Schedule()
			switch step % 4 {
			case 0: // single-job change
				next[r.Intn(in.Jobs)] = r.Intn(in.Machs)
			case 1: // small batch, the daemon admission shape
				for k := 0; k < 1+r.Intn(6); k++ {
					next[r.Intn(in.Jobs)] = r.Intn(in.Machs)
				}
			case 2: // no-op replacement
			default: // wholesale rewrite
				for j := range next {
					next[j] = r.Intn(in.Machs)
				}
			}
			diffSt.SetScheduleDiff(next)
			fullSt.SetSchedule(next)
			requireStateEqual(t, diffSt, fullSt)
			// The probe layer reads cumC/cumF and the tree; spot-check a
			// few speculative fitness values bit for bit.
			for k := 0; k < 8; k++ {
				j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
				df := diffSt.FitnessAfterMove(DefaultObjective, j, to)
				ff := fullSt.FitnessAfterMove(DefaultObjective, j, to)
				if math.Float64bits(df) != math.Float64bits(ff) {
					t.Fatalf("FitnessAfterMove(%d,%d) bits differ after diff: %v vs %v", j, to, df, ff)
				}
			}
		}
	}
}

// TestSetScheduleDiffAdvancesOnlyChangedMachines pins the delta
// contract: the diff path advances the epochs of exactly the machines
// whose job sets changed, and leaves every other machine's epoch — what
// the daemon's digest re-hashes by — untouched.
func TestSetScheduleDiffAdvancesOnlyChangedMachines(t *testing.T) {
	in := diffTestInstance(60, 6, 3)
	r := rng.New(11)
	st := NewState(in, NewRandom(in, r))

	epochBefore := make([]uint64, in.Machs)
	for m := range epochBefore {
		epochBefore[m] = st.MachEpoch(m)
	}

	// Move one job between two specific machines.
	var j, from, to int
	for j = 0; j < in.Jobs; j++ {
		if st.Assign(j) == 0 {
			from, to = 0, 1
			break
		}
	}
	next := st.Schedule()
	next[j] = to
	st.SetScheduleDiff(next)

	for m := 0; m < in.Machs; m++ {
		changed := st.MachEpoch(m) != epochBefore[m]
		if wantCh := m == from || m == to; changed != wantCh {
			t.Errorf("machine %d epoch moved=%v, want %v", m, changed, wantCh)
		}
	}

	// An empty diff is a no-op: no epoch movement at all.
	e := st.Epoch()
	st.SetScheduleDiff(st.Schedule())
	if st.Epoch() != e {
		t.Errorf("no-op diff moved the state epoch")
	}
}

// TestSetScheduleDiffRejectsInvalid pins that SetScheduleDiff, which
// checks only the length and the changed entries, panics with Validate's
// error on a short schedule and on an out-of-range machine, and that a
// caller recovering the panic can keep using the state.
func TestSetScheduleDiffRejectsInvalid(t *testing.T) {
	in := diffTestInstance(40, 5, 4)
	r := rng.New(12)
	st := NewState(in, NewRandom(in, r))
	mustPanic := func(s Schedule) {
		t.Helper()
		want := s.Validate(in)
		defer func() {
			got, _ := recover().(error)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("panic %v, want %v", got, want)
			}
		}()
		st.SetScheduleDiff(s)
	}
	mustPanic(st.Schedule()[:in.Jobs-1])
	bad := st.Schedule()
	bad[3] = (bad[3] + 1) % in.Machs // a valid change before the bad one
	bad[7] = in.Machs
	mustPanic(bad)
	bad[7] = -1
	mustPanic(bad)
	for range 20 {
		next := NewRandom(in, r)
		st.SetScheduleDiff(next)
		requireStateEqual(t, st, NewState(in, next))
	}
}

// TestSetScheduleDiffScanCacheStaysExact runs the critical-swap query
// across diff-based replacements and checks every query against a cold
// full state — the daemon's admission loop in miniature: batches commit
// through SetScheduleDiff and search queries follow on the same state.
func TestSetScheduleDiffScanCacheStaysExact(t *testing.T) {
	in := diffTestInstance(80, 8, 17)
	r := rng.New(23)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(DefaultObjective)
	for step := 0; step < 80; step++ {
		next := st.Schedule()
		for k := 0; k < 1+r.Intn(5); k++ {
			next[r.Intn(in.Jobs)] = r.Intn(in.Machs)
		}
		st.SetScheduleDiff(next)
		v, a, b := sc.BestCriticalSwap()
		ref := NewState(in, st.Schedule())
		rv, ra, rb := ref.Scans(DefaultObjective).BestCriticalSwap()
		if math.Float64bits(v) != math.Float64bits(rv) || a != ra || b != rb {
			t.Fatalf("step %d: cached scan (%v,%d,%d) != cold scan (%v,%d,%d)",
				step, v, a, b, rv, ra, rb)
		}
	}
}

// TestRefreshFlowtime pins the canonicalisation contract: after a long
// Move/Swap sequence, RefreshFlowtime makes the state flowtime bit-equal
// to a freshly rebuilt state's, and bumps the epoch so cached fitness
// contexts recapture.
func TestRefreshFlowtime(t *testing.T) {
	in := diffTestInstance(120, 8, 29)
	r := rng.New(31)
	st := NewState(in, NewRandom(in, r))
	for k := 0; k < 500; k++ {
		if k%2 == 0 {
			st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		} else {
			st.Swap(r.Intn(in.Jobs), r.Intn(in.Jobs))
		}
	}
	clean := NewState(in, st.Schedule())
	e := st.Epoch()
	st.RefreshFlowtime()
	if st.Epoch() == e {
		t.Errorf("RefreshFlowtime did not advance the epoch")
	}
	if math.Float64bits(st.Flowtime()) != math.Float64bits(clean.Flowtime()) {
		t.Errorf("flowtime not canonical after refresh: %v vs %v", st.Flowtime(), clean.Flowtime())
	}
}

// TestInvalidateMachine pins that the invalidation hook moves the
// machine's epoch — what the daemon's digest and the move-probe context
// key on after the daemon rewrites an empty machine's ETC column (its
// join path) — and that a query afterwards agrees with a cold state.
func TestInvalidateMachine(t *testing.T) {
	in := diffTestInstance(40, 4, 41)
	r := rng.New(43)
	st := NewState(in, NewRandom(in, r))
	m := 2
	// Vacate machine m so the column rewrite cannot disturb list order.
	next := st.Schedule()
	for j := range next {
		if next[j] == m {
			next[j] = (m + 1) % in.Machs
		}
	}
	st.SetScheduleDiff(next)
	sc := st.Scans(DefaultObjective)
	sc.BestCriticalSwap()

	e := st.MachEpoch(m)
	st.InvalidateMachine(m)
	if st.MachEpoch(m) == e {
		t.Fatalf("InvalidateMachine did not move the machine epoch")
	}
	// The query must agree with a cold state.
	v, a, b := sc.BestCriticalSwap()
	ref := NewState(in, st.Schedule())
	rv, ra, rb := ref.Scans(DefaultObjective).BestCriticalSwap()
	if math.Float64bits(v) != math.Float64bits(rv) || a != ra || b != rb {
		t.Fatalf("cached scan (%v,%d,%d) != cold scan (%v,%d,%d)", v, a, b, rv, ra, rb)
	}
}

// TestSetScheduleFromMatchesSetSchedule pins the cMA's rebuild of a
// crossover child: SetScheduleFrom(parent, child) must equal
// SetSchedule(child) in every value-bearing bit, carry the parent's
// version on each machine the child leaves alone, give every other
// machine a version drawn during the call, and answer the same
// critical-swap query.
// Children cover one-point crossover, a single changed job, no change, a
// full rewrite, a machine drained to empty and every job crowded onto one
// machine (a list past the insertion sort's cut-off), on integer ETC with
// many ties and on two generated instances, CVB and range-based. The
// parents run commits first; on generated ETC their incrementally updated
// flowtime bits then differ from the canonical fold, which an unchanged
// child must not inherit, and the test checks that case occurs.
func TestSetScheduleFromMatchesSetSchedule(t *testing.T) {
	drifted := 0
	for _, in := range []*etc.Instance{
		diffTestInstance(24, 4, 1), diffTestInstance(96, 8, 2), diffTestInstance(200, 16, 3), cvbInstance(64, 8, 4),
		randInstance(9, 96, 8),
	} {
		r := rng.New(5)
		commit := func(st *State) {
			if r.Intn(2) == 0 {
				st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
			} else {
				st.Swap(r.Intn(in.Jobs), r.Intn(in.Jobs))
			}
		}
		pop := make([]*State, 4)
		for i := range pop {
			pop[i] = NewState(in, NewRandom(in, r))
			for k := 0; k < 30; k++ {
				commit(pop[i])
			}
		}
		scratch := NewState(in, NewRandom(in, r))
		full := NewState(in, NewRandom(in, r))
		for step := 0; step < 90; step++ {
			parent := pop[r.Intn(len(pop))]
			child := parent.Schedule()
			switch step % 6 {
			case 0: // one-point crossover with another member
				cut := r.Intn(in.Jobs)
				copy(child[cut:], pop[r.Intn(len(pop))].ScheduleView()[cut:])
			case 1:
				child[r.Intn(in.Jobs)] = r.Intn(in.Machs)
			case 2: // unchanged
			case 3:
				for j := range child {
					child[j] = r.Intn(in.Machs)
				}
			case 4: // drain one machine
				m := r.Intn(in.Machs)
				for j := range child {
					if child[j] == m {
						child[j] = (m + 1) % in.Machs
					}
				}
			default:
				for j := range child {
					child[j] = 0
				}
			}
			if step%6 == 2 && math.Float64bits(parent.Flowtime()) != math.Float64bits(NewState(in, child).Flowtime()) {
				drifted++
			}
			mark := versions.Load()
			scratch.SetScheduleFrom(parent, child)
			full.SetSchedule(child)
			requireStateEqual(t, scratch, full)
			changed := changedMachines(parent.ScheduleView(), child, in.Machs)
			for m := 0; m < in.Machs; m++ {
				v := scratch.MachEpoch(m)
				if slices.Contains(changed, m) && v <= mark {
					t.Fatalf("%s step %d: changed machine %d holds version %d, drawn before the call", in.Name, step, m, v)
				}
				if !slices.Contains(changed, m) && v != parent.MachEpoch(m) {
					t.Fatalf("%s step %d: unchanged machine %d holds version %d, parent %d", in.Name, step, m, v, parent.MachEpoch(m))
				}
				if got, want := scratch.top.maxExcluding(m), full.top.maxExcluding(m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s step %d: maxExcluding(%d) = %v, want %v", in.Name, step, m, got, want)
				}
			}
			gv, ga, gb := scratch.Scans(DefaultObjective).BestCriticalSwap()
			wv, wa, wb := full.Scans(DefaultObjective).BestCriticalSwap()
			if math.Float64bits(gv) != math.Float64bits(wv) || ga != wa || gb != wb {
				t.Fatalf("%s step %d: cached scan (%v, %d, %d), want (%v, %d, %d)", in.Name, step, gv, ga, gb, wv, wa, wb)
			}
			commit(parent)
		}
	}
	if drifted == 0 {
		t.Error("no unchanged child had a parent with drifted flowtime bits")
	}
}
