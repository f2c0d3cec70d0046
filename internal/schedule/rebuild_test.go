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
		for k, j := range jobs[m] {
			if st.slot[j] != int32(k) {
				t.Fatalf("%s: slot[%d] = %d, want %d", tag, j, st.slot[j], k)
			}
		}
	}
	if st.Flowtime() != flowtime {
		t.Fatalf("%s: flowtime = %v, want %v", tag, st.Flowtime(), flowtime)
	}
}

// TestRebuildBucketDifferential pins the bucket rebuild against the
// reference evaluation across random, tie-heavy and float32-backed
// instances, and across SetSchedule transitions that drift the per-machine
// counts (including a full pile-up on one machine, which forces regions
// far beyond the balanced slack).
func TestRebuildBucketDifferential(t *testing.T) {
	f32 := func(jobs, machs int, seed uint64) *etc.Instance {
		g := etc.GenSpec{Jobs: jobs, Machs: machs,
			Class: etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			Seed:  seed, Float32: true}
		in, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	instances := []*etc.Instance{
		randInstance(11, 64, 8),
		randInstance(12, 96, 5),
		randInstance(13, 30, 1),
		tieInstance(60, 8, 14), // integer ETC: the id tie-break binds
		tieInstance(48, 4, 15),
		f32(64, 8, 16),
		f32(40, 6, 17),
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
// the cMA does; "full" sorts every list (SetSchedule). Warm, neither may allocate (CI's
// allocation guard runs this at -benchtime 1x).
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
}
