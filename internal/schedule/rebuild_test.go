package schedule

import (
	"fmt"
	"slices"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// refEval is the historical rebuild, reimplemented naively: bucket the
// jobs per machine, sort each bucket with a SortFunc over the At
// accessor, and resum completions and flowtime in list order. The bucket
// rebuild in state.go must reproduce every list, every prefix sum and
// every scalar bit for bit against this reference — (ETC, id) is a total
// order, so the sorted lists are unique regardless of how they were
// produced.
func refEval(in *etc.Instance, s Schedule) (machJobs [][]int32, cumC, cumF [][]float64, completion []float64, flowtime float64) {
	machJobs = make([][]int32, in.Machs)
	for j, m := range s {
		machJobs[m] = append(machJobs[m], int32(j))
	}
	cumC = make([][]float64, in.Machs)
	cumF = make([][]float64, in.Machs)
	completion = make([]float64, in.Machs)
	for m := range machJobs {
		slices.SortFunc(machJobs[m], func(a, b int32) int {
			ea, eb := in.At(int(a), m), in.At(int(b), m)
			switch {
			case ea < eb:
				return -1
			case ea > eb:
				return 1
			default:
				return int(a - b)
			}
		})
		t := in.Ready[m]
		f := 0.0
		for _, j := range machJobs[m] {
			t += in.At(int(j), m)
			f += t
			cumC[m] = append(cumC[m], t)
			cumF[m] = append(cumF[m], f)
		}
		completion[m] = t
		flowtime += f
	}
	return
}

func checkAgainstRef(t *testing.T, tag string, in *etc.Instance, s Schedule, st *State) {
	t.Helper()
	jobs, cumC, cumF, completion, flowtime := refEval(in, s)
	for m := 0; m < in.Machs; m++ {
		if !slices.Equal(st.JobsOn(m), jobs[m]) {
			t.Fatalf("%s: machine %d jobs = %v, want %v", tag, m, st.JobsOn(m), jobs[m])
		}
		if !slices.Equal(st.machCumC[m], cumC[m]) || !slices.Equal(st.machCumF[m], cumF[m]) {
			t.Fatalf("%s: machine %d prefix sums differ", tag, m)
		}
		if st.Completion(m) != completion[m] {
			t.Fatalf("%s: completion[%d] = %v, want %v", tag, m, st.Completion(m), completion[m])
		}
		if n := len(cumF[m]); n > 0 && st.machFlow[m] != cumF[m][n-1] || n == 0 && st.machFlow[m] != 0 {
			t.Fatalf("%s: machFlow[%d] = %v disagrees with its prefix sums", tag, m, st.machFlow[m])
		}
		for k, j := range jobs[m] {
			if st.slot[j] != int32(k) {
				t.Fatalf("%s: slot[%d] = %d, want %d", tag, j, st.slot[j], k)
			}
		}
	}
	if st.Flowtime() != flowtime {
		t.Fatalf("%s: flowtime = %v, want %v", tag, st.Flowtime(), flowtime)
	}
	arg := 0
	for m, c := range completion {
		if c > completion[arg] {
			arg = m
		}
	}
	if st.MakespanMachine() != arg || st.top.max() != completion[arg] {
		t.Fatalf("%s: tree argmax %d (%v), want %d (%v)", tag, st.MakespanMachine(), st.top.max(), arg, completion[arg])
	}
}

// TestRebuildBucketDifferential pins the bucket rebuild against the
// reference evaluation across random, tie-heavy and CVB-generated
// instances, and across SetSchedule transitions that drift the per-machine
// counts (including a full pile-up on one machine, which forces regions
// far beyond the balanced slack).
func TestRebuildBucketDifferential(t *testing.T) {
	instances := []*etc.Instance{
		randInstance(11, 64, 8),
		randInstance(12, 96, 5),
		randInstance(13, 30, 1),
		tieInstance(60, 8, 14), // integer ETC: the id tie-break binds
		tieInstance(48, 4, 15),
		cvbInstance(64, 8, 16),
		cvbInstance(40, 6, 17),
	}
	for i, in := range instances {
		r := rng.New(uint64(100 + i))
		s := make(Schedule, in.Jobs)
		for j := range s {
			s[j] = r.Intn(in.Machs)
		}
		st := NewState(in, s)
		checkAgainstRef(t, in.Name+"/new", in, s, st)

		// Re-point the same state at fresh schedules: the carve must
		// track count drift without corrupting neighbours.
		for round := 0; round < 5; round++ {
			for j := range s {
				s[j] = r.Intn(in.Machs)
			}
			st.SetSchedule(s)
			checkAgainstRef(t, in.Name+"/drift", in, s, st)
		}

		// Extreme skew: every job on one machine, then back to spread.
		for j := range s {
			s[j] = 0
		}
		st.SetSchedule(s)
		checkAgainstRef(t, in.Name+"/skew", in, s, st)
		for j := range s {
			s[j] = r.Intn(in.Machs)
		}
		st.SetSchedule(s)
		checkAgainstRef(t, in.Name+"/respread", in, s, st)

		// Clone and CopyFrom route list copies through the same regions.
		cp := st.Clone()
		checkAgainstRef(t, in.Name+"/clone", in, s, cp)
		other := NewState(in, make(Schedule, in.Jobs))
		other.CopyFrom(st)
		checkAgainstRef(t, in.Name+"/copyfrom", in, s, other)
	}
}

// parkInstance builds a daemon-shaped instance: machs real columns with
// ready times and either tie-heavy integer or random ETCs, plus a parking
// column (the last) holding a distinct tiny key per job, so the parking
// machine's list is in key order.
func parkInstance(jobs, machs int, seed uint64, tie bool) *etc.Instance {
	in := etc.New("park", jobs, machs+1)
	r := rng.New(seed)
	for j := 0; j < jobs; j++ {
		for m := 0; m < machs; m++ {
			if tie {
				in.Set(j, m, float64(1+r.Intn(4))*25)
			} else {
				in.Set(j, m, 1+99*r.Float64())
			}
		}
		in.Set(j, machs, float64(j+1)*1e-12)
	}
	for m := 0; m < machs; m++ {
		in.Ready[m] = float64(r.Intn(3)) * 10
	}
	in.Finalize()
	return in
}

// TestCommitSuffixDifferential pins the suffix-only commits — Move, Swap
// and SetScheduleDiff resume each machine's summation at its first edited
// slot — against the from-scratch reference after every step, bit for
// bit. The instances are shaped like the online daemon's: a parking
// machine holding well over a thousand jobs in key order, which a commit
// appends to (the job's parking cell is first rewritten to a fresh,
// largest key while the job is elsewhere, as the daemon does) and drains
// LIFO from the tail, beside real machines with tie-heavy integer or
// random ETCs. The state flowtime is refolded
// before each check: Move and Swap maintain it incrementally, and the
// per-machine flows the suffix resum produces are what the check pins.
func TestCommitSuffixDifferential(t *testing.T) {
	const jobs, machs = 1536, 6
	const park = machs
	cases := []struct {
		name string
		tie  bool
	}{{"tie", true}, {"tie2", true}, {"rand", false}}
	for i, c := range cases {
		in := parkInstance(jobs, machs, uint64(21+i), c.tie)
		r := rng.New(uint64(31 + i))
		key := float64(jobs)
		parkKey := func(j int) {
			key++
			in.Set(j, park, key*1e-12)
		}
		s := make(Schedule, jobs)
		for j := range s {
			s[j] = park
			if j%6 == 0 {
				s[j] = r.Intn(machs)
			}
		}
		st := NewState(in, s)
		check := func(tag string) {
			t.Helper()
			st.RefreshFlowtime()
			checkAgainstRef(t, c.name+" "+tag, in, st.ScheduleView(), st)
		}
		check("new")
		// live draws a job on a real machine, -1 if a few tries find none.
		live := func() int {
			for try := 0; try < 64; try++ {
				if j := r.Intn(jobs); st.Assign(j) != park {
					return j
				}
			}
			return -1
		}
		for step := 0; step < 600; step++ {
			parked := st.JobsOn(park)
			tail := int(parked[len(parked)-1])
			op := r.Intn(7)
			switch op {
			case 0, 1: // completion: a live job parks at the tail
				if j := live(); j >= 0 {
					parkKey(j)
					st.Move(j, park)
				}
			case 2: // placement of the tail
				st.Move(tail, r.Intn(machs))
			case 3: // rebalancing between real machines
				if j := live(); j >= 0 {
					st.Move(j, r.Intn(machs))
				}
			case 4: // a live job swaps with the tail or another live job
				a, b := live(), live()
				if a < 0 || b < 0 {
					break
				}
				if r.Intn(2) == 0 {
					parkKey(a)
					b = tail
				}
				st.Swap(a, b)
			case 5: // a mid-list parked job leaves
				st.Move(int(parked[r.Intn(len(parked))]), r.Intn(machs))
			case 6: // an admission batch: drain the tail, park and shuffle a few
				cand := st.Schedule()
				for _, j := range parked[len(parked)-1-r.Intn(16):] {
					cand[j] = r.Intn(machs)
				}
				for k := r.Intn(16); k > 0; k-- {
					if j := live(); j >= 0 && cand[j] != park {
						parkKey(j)
						cand[j] = park
					}
				}
				for k := r.Intn(8); k > 0; k-- {
					if j := live(); j >= 0 && cand[j] != park {
						cand[j] = r.Intn(machs)
					}
				}
				st.SetScheduleDiff(cand)
			}
			check(fmt.Sprintf("step %d (op %d)", step, op))
			if n := len(st.JobsOn(park)); n < 1000 {
				t.Fatalf("%s step %d: parking machine down to %d jobs", c.name, step, n)
			}
		}
	}
}

// BenchmarkRebuildBucket is the steady-state SetSchedule path under the
// bucket rebuild: re-pointing a warm State at alternating schedules must
// not allocate (CI's allocation guard runs this at -benchtime 1x).
func BenchmarkRebuildBucket(b *testing.B) {
	in := randInstance(1, 512, 16)
	r := rng.New(2)
	a := make(Schedule, in.Jobs)
	c := make(Schedule, in.Jobs)
	for j := range a {
		a[j] = r.Intn(in.Machs)
		c[j] = r.Intn(in.Machs)
	}
	st := NewState(in, a)
	st.SetSchedule(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			st.SetSchedule(a)
		} else {
			st.SetSchedule(c)
		}
	}
}

// BenchmarkOffspringRebuild is the cMA's per-offspring rebuild on
// 512x16: one-point crossover children of parents drawn from a
// population of 25, each the same random schedule with the given share of
// its jobs reassigned at random (the cMA seeds its population with share
// 0.3). "parent" rebuilds from the first parent (SetScheduleFrom), as
// the cMA does; "full" sorts every list (SetSchedule). Such parents are
// independent evaluations, so no machine version matches across them and
// CopyFrom copies every list. The "lineage" cases, at 512x16 and at the
// benchmark's 16384x256, draw their 25 parents the way the cMA's
// population grows instead: each is a CopyFrom of an earlier one plus a
// few Moves, so parents share most machine versions and CopyFrom skips
// those lists. Warm, no case may allocate (CI's allocation guard runs
// this at -benchtime 1x).
func BenchmarkOffspringRebuild(b *testing.B) {
	for _, share := range []float64{0.05, 0.3} {
		in := randInstance(1, 512, 16)
		r := rng.New(2)
		seed := NewRandom(in, r)
		pop := make([]*State, 25)
		for i := range pop {
			s := seed.Clone()
			Perturb(s, in, r, share)
			pop[i] = NewState(in, s)
		}
		type cross struct {
			parent *State
			child  Schedule
		}
		crosses := make([]cross, 64)
		for i := range crosses {
			p1, p2 := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
			cut := r.Intn(in.Jobs)
			crosses[i] = cross{p1, append(p1.Schedule()[:cut], p2.ScheduleView()[cut:]...)}
		}
		st := NewState(in, seed)
		b.Run(fmt.Sprintf("share=%g/parent", share), func(b *testing.B) {
			for _, c := range crosses {
				st.SetScheduleFrom(c.parent, c.child)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := crosses[i%len(crosses)]
				st.SetScheduleFrom(c.parent, c.child)
			}
		})
		b.Run(fmt.Sprintf("share=%g/full", share), func(b *testing.B) {
			for _, c := range crosses {
				st.SetSchedule(c.child)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.SetSchedule(crosses[i%len(crosses)].child)
			}
		})
	}
	for _, dims := range []struct{ jobs, machs int }{{512, 16}, {16384, 256}} {
		in := randInstance(1, dims.jobs, dims.machs)
		r := rng.New(3)
		pop := make([]*State, 25)
		pop[0] = NewState(in, NewRandom(in, r))
		for i := 1; i < len(pop); i++ {
			pop[i] = NewBlankState(in)
			pop[i].CopyFrom(pop[r.Intn(i)])
			for range 4 {
				pop[i].Move(r.Intn(in.Jobs), r.Intn(in.Machs))
			}
		}
		type cross struct {
			parent *State
			child  Schedule
		}
		crosses := make([]cross, 64)
		for i := range crosses {
			p1, p2 := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
			cut := r.Intn(in.Jobs)
			crosses[i] = cross{p1, append(p1.Schedule()[:cut], p2.ScheduleView()[cut:]...)}
		}
		st := pop[0].Clone()
		b.Run(fmt.Sprintf("lineage/%dx%d/parent", dims.jobs, dims.machs), func(b *testing.B) {
			for _, c := range crosses {
				st.SetScheduleFrom(c.parent, c.child)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := crosses[i%len(crosses)]
				st.SetScheduleFrom(c.parent, c.child)
			}
		})
	}
}
