package localsearch

import (
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// This file pins the batched sweep formulations of SLM and LMCTS to the
// historical scalar-probe formulations, which are kept here verbatim as
// references: for identical seeds the two must walk identical
// trajectories — every committed step the same, bit for bit — on both
// generic random instances and tie-heavy integer instances where the
// scan-order tie-breaking contracts actually bind.

// slmScalarProbe is the pre-sweep SLM: one scalar probe per target, the
// accept baseline re-read from the state every iteration.
func slmScalarProbe(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	in := st.Instance()
	for k := 0; k < iters; k++ {
		j := r.Intn(in.Jobs)
		from := st.Assign(j)
		bestFit := o.Of(st)
		bestTo := from
		for to := 0; to < in.Machs; to++ {
			if to == from {
				continue
			}
			if f := st.FitnessAfterMove(o, j, to); f < bestFit {
				bestFit, bestTo = f, to
			}
		}
		if bestTo != from {
			st.Move(j, bestTo)
		}
	}
}

// lmctsScalarScan is the pre-sweep LMCTS full scan: every partner job in
// ascending id order through the scalar pair query, with the strict-<
// fold whose implicit tie-break (first critical job, then smallest
// partner id) the batched scan must reproduce.
func lmctsScalarScan(st *schedule.State, o schedule.Objective, iters int, _ *rng.Source) {
	in := st.Instance()
	for it := 0; it < iters; it++ {
		crit := st.MakespanMachine()
		critJobs := st.JobsOn(crit)
		if len(critJobs) == 0 {
			return
		}
		bestA, bestB := -1, -1
		bestMax := st.Completion(crit)
		for _, a := range critJobs {
			for b := 0; b < in.Jobs; b++ {
				if st.Assign(b) == crit {
					continue
				}
				aC, bC := completionAfterSwap(st, int(a), b)
				if m := math.Max(aC, bC); m < bestMax {
					bestMax, bestA, bestB = m, int(a), b
				}
			}
		}
		if bestA < 0 {
			return
		}
		if st.FitnessAfterSwap(o, bestA, bestB) >= o.Of(st) {
			return
		}
		st.Swap(bestA, bestB)
	}
}

// tieInstance draws ETC values from a tiny integer set so candidate
// completions collide exactly, forcing the tie-break paths.
func tieInstance(jobs, machs int, seed uint64) *etc.Instance {
	in := etc.New("tie", jobs, machs)
	r := rng.New(seed)
	for j := 0; j < jobs; j++ {
		for m := 0; m < machs; m++ {
			in.Set(j, m, float64(1+r.Intn(4))*25)
		}
	}
	in.Finalize()
	return in
}

// diffInstances yields the instance mix of the trajectory differentials.
func diffInstances() []*etc.Instance {
	out := []*etc.Instance{
		etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 21, Jobs: 64, Machs: 8}),
		etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 22, Jobs: 96, Machs: 5}),
		tieInstance(48, 6, 23),
		tieInstance(40, 4, 24),
		tieInstance(24, 3, 25),
	}
	return out
}

// TestSLMSweepMatchesScalar walks the sweep SLM and the scalar reference
// from the same states with the same RNG streams and requires identical
// schedules after every Improve call.
func TestSLMSweepMatchesScalar(t *testing.T) {
	o := schedule.DefaultObjective
	for i, in := range diffInstances() {
		start := schedule.NewRandom(in, rng.New(uint64(i)+40))
		a := schedule.NewState(in, start)
		b := schedule.NewState(in, start.Clone())
		ra, rb := rng.New(99), rng.New(99)
		for step := 0; step < 60; step++ {
			SLM{}.Improve(a, o, 3, ra)
			slmScalarProbe(b, o, 3, rb)
			if !a.Schedule().Equal(b.Schedule()) {
				t.Fatalf("instance %d step %d: sweep SLM diverged from scalar reference", i, step)
			}
		}
	}
}

// TestLMCTSSweepMatchesScalar is the swap-side trajectory differential:
// the machine-grouped batched scan must pick the exact swap the
// ascending-id scalar scan picked, including on tie-heavy instances.
func TestLMCTSSweepMatchesScalar(t *testing.T) {
	o := schedule.DefaultObjective
	for i, in := range diffInstances() {
		start := schedule.NewRandom(in, rng.New(uint64(i)+60))
		a := schedule.NewState(in, start)
		b := schedule.NewState(in, start.Clone())
		for step := 0; step < 80; step++ {
			LMCTS{}.Improve(a, o, 1, nil)
			lmctsScalarScan(b, o, 1, nil)
			if !a.Schedule().Equal(b.Schedule()) {
				t.Fatalf("instance %d step %d: sweep LMCTS diverged from scalar reference", i, step)
			}
		}
	}
}

// TestLocalSearchAllocationFree asserts the rewritten methods' hot loops
// stay allocation-free after the state's sweep buffers warm up.
func TestLocalSearchAllocationFree(t *testing.T) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 31, Jobs: 128, Machs: 16})
	o := schedule.DefaultObjective
	for _, m := range []Method{SLM{}, LMCTS{}, SampledLMCTS{Samples: 16}, LM{}} {
		r := rng.New(5)
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		m.Improve(st, o, 2, r) // warm-up
		if n := testing.AllocsPerRun(50, func() {
			m.Improve(st, o, 1, r)
		}); n != 0 {
			t.Errorf("%s allocates %v per Improve", m.Name(), n)
		}
	}
}
