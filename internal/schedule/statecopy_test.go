package schedule

import (
	"slices"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// copyInstances are the instances FuzzStateCopy runs on: integer ETC
// with many ties at three shapes (the 9×6 one leaves machines empty
// often) and CVB-generated ETC at two.
func copyInstances() []*etc.Instance {
	return []*etc.Instance{
		diffTestInstance(24, 4, 51), diffTestInstance(9, 6, 52), diffTestInstance(96, 8, 53),
		cvbInstance(64, 8, 54), cvbInstance(7, 5, 55),
	}
}

// evaluated returns a fresh evaluation of st's schedule carrying st's
// flowtime bits: Move and Swap keep the flowtime with a subtract-then-add
// update whose last bits may differ from a fresh fold, and a copy must
// carry the source's bits, not refold them.
func evaluated(st *State) *State {
	ref := NewState(st.inst, st.Schedule())
	ref.flowtime = st.flowtime
	return ref
}

// changedMachines returns the machines whose job sets differ between the
// schedules a and b, ascending.
func changedMachines(a, b Schedule, machs int) []int {
	mark := make([]bool, machs)
	for j := range a {
		if a[j] != b[j] {
			mark[a[j]], mark[b[j]] = true, true
		}
	}
	var out []int
	for m, c := range mark {
		if c {
			out = append(out, m)
		}
	}
	return out
}

// versionOracle checks the content-version contract over a pool of
// States: a machine whose contents change draws a version that no State
// has held before, every other machine keeps its version, and a copy
// carries its source's versions.
type versionOracle struct {
	t    *testing.T
	seen map[uint64]bool
}

// fresh requires that exactly the machines in touched moved from before,
// each to a version never seen, and records those versions.
func (o *versionOracle) fresh(what string, st *State, before []uint64, touched []int) {
	o.t.Helper()
	for m, v := range st.machEpoch {
		if !slices.Contains(touched, m) {
			if v != before[m] {
				o.t.Fatalf("%s: untouched machine %d version %d → %d", what, m, before[m], v)
			}
			continue
		}
		if v == before[m] || o.seen[v] {
			o.t.Fatalf("%s: machine %d version %d → %d, want one never handed out", what, m, before[m], v)
		}
		o.seen[v] = true
	}
}

// carried requires that dst holds src's versions and, machine by
// machine, src's contents: equal to a fresh evaluation of src's schedule
// in every list, prefix sum and table, with src's flowtime bits.
func (o *versionOracle) carried(what string, dst, src *State) {
	o.t.Helper()
	if !slices.Equal(dst.machEpoch, src.machEpoch) {
		o.t.Fatalf("%s: versions %v, source holds %v", what, dst.machEpoch, src.machEpoch)
	}
	requireStateEqual(o.t, dst, evaluated(src))
}

// runCopyProgram runs one byte program over a pool of four States on
// in. Each byte is one operation on pool member op>>4 (mod 4): Move,
// Swap, SetScheduleDiff, SetScheduleFrom another member, SetSchedule
// (half the time crowding half the jobs onto one machine, so that a
// later copy outgrows the regions the destination was carved with),
// CopyFrom another member (itself included), a blank State's CopyFrom,
// Clone, or InvalidateMachine. After every operation the versionOracle
// checks the versions and the member against a fresh evaluation; after
// every copy its scan cache, warmed before the copy, must serve the
// copied State's fitness.
func runCopyProgram(t *testing.T, in *etc.Instance, seed uint64, prog []byte) {
	r := rng.New(seed)
	o := &versionOracle{t: t, seen: map[uint64]bool{}}
	all := make([]int, in.Machs)
	for m := range all {
		all[m] = m
	}
	pool := make([]*State, 4)
	for i := range pool {
		pool[i] = NewState(in, NewRandom(in, r))
		o.fresh("NewState", pool[i], make([]uint64, in.Machs), all)
	}
	edit := func(s Schedule) Schedule {
		for n := 1 + r.Intn(3); n > 0; n-- {
			s[r.Intn(in.Jobs)] = r.Intn(in.Machs)
		}
		return s
	}
	for step, op := range prog {
		i, k := int(op>>4)%len(pool), r.Intn(len(pool))
		st, src := pool[i], pool[k]
		before, epoch := slices.Clone(st.machEpoch), st.Epoch()
		var touched []int // the machines that must draw fresh versions
		advance := true   // whether the state epoch must move
		switch op % 9 {
		case 0:
			j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
			if from := st.Assign(j); from != to {
				touched = []int{from, to}
			}
			st.Move(j, to)
			o.fresh("Move", st, before, touched)
			advance = touched != nil
		case 1:
			a, b := r.Intn(in.Jobs), r.Intn(in.Jobs)
			if ma, mb := st.Assign(a), st.Assign(b); ma != mb {
				touched = []int{ma, mb}
			}
			st.Swap(a, b)
			o.fresh("Swap", st, before, touched)
			advance = touched != nil
		case 2:
			next := edit(st.Schedule())
			touched = changedMachines(st.ScheduleView(), next, in.Machs)
			st.SetScheduleDiff(next)
			o.fresh("SetScheduleDiff", st, before, touched)
			advance = touched != nil
		case 3:
			child, base := edit(src.Schedule()), slices.Clone(src.machEpoch)
			touched = changedMachines(src.ScheduleView(), child, in.Machs)
			st.SetScheduleFrom(src, child)
			o.fresh("SetScheduleFrom", st, base, touched)
			requireStateEqual(t, st, NewState(in, child))
		case 4:
			touched = all
			next := edit(st.Schedule())
			if r.Intn(2) == 0 { // crowd half the jobs onto one machine
				m := r.Intn(in.Machs)
				for j := range next {
					if r.Intn(2) == 0 {
						next[j] = m
					}
				}
			}
			st.SetSchedule(next)
			o.fresh("SetSchedule", st, before, touched)
		case 5:
			sc := st.Scans(DefaultObjective)
			sc.Fitness()
			st.CopyFrom(src)
			o.carried("CopyFrom", st, src)
			if got, want := sc.Fitness(), DefaultObjective.Of(st); got != want {
				t.Fatalf("step %d: cached fitness %x after CopyFrom, want %x", step, got, want)
			}
		case 6:
			st = NewBlankState(in)
			st.CopyFrom(src)
			o.carried("blank CopyFrom", st, src)
			epoch = 0
		case 7:
			st = src.Clone()
			o.carried("Clone", st, src)
			epoch, advance = src.Epoch(), false // a clone carries the epoch
		default:
			m := r.Intn(in.Machs)
			touched = []int{m}
			st.InvalidateMachine(m)
			o.fresh("InvalidateMachine", st, before, touched)
		}
		if moved := st.Epoch() != epoch; moved != advance {
			t.Fatalf("step %d (op %d): epoch %d → %d, want moved=%v", step, op%9, epoch, st.Epoch(), advance)
		}
		requireStateEqual(t, st, evaluated(st))
		pool[i] = st
	}
}

// FuzzStateCopy is the differential check of the version-aware copy:
// random programs of edits and copies over a pool of States
// (runCopyProgram), where every copy must equal a fresh evaluation of
// its source bit for bit, whichever machines it skipped as already held.
func FuzzStateCopy(f *testing.F) {
	instances := copyInstances()
	for i := range instances {
		r := rng.New(uint64(i) + 1400)
		prog := make([]byte, 120)
		for k := range prog {
			prog[k] = byte(r.Intn(256))
		}
		f.Add(uint8(i), uint64(i)+1500, prog)
	}
	f.Fuzz(func(t *testing.T, pick uint8, seed uint64, prog []byte) {
		if len(prog) > 256 {
			return // longer programs only repeat the same checks
		}
		runCopyProgram(t, instances[int(pick)%len(instances)], seed, prog)
	})
}
