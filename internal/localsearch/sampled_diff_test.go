package localsearch

import (
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// completionAfterSwap returns the completion times the machines of a and
// b would have after swapping the two jobs, which must sit on different
// machines: the scalar pair query the reference scans are written over.
func completionAfterSwap(st *schedule.State, a, b int) (aC, bC float64) {
	in := st.Instance()
	ma, mb := st.Assign(a), st.Assign(b)
	return st.Completion(ma) - in.At(a, ma) + in.At(b, ma),
		st.Completion(mb) - in.At(b, mb) + in.At(a, mb)
}

// sampledCriticalSwapOracle is the unscreened sampled scan: every sample
// skips a partner on the critical machine, then reads both completions
// through the scalar pair query and folds max(aC, bC) strict-<.
func sampledCriticalSwapOracle(st *schedule.State, samples int, r *rng.Source) (bestMax float64, bestA, bestB int) {
	in := st.Instance()
	crit := st.MakespanMachine()
	bestMax, bestA, bestB = st.Completion(crit), -1, -1
	for _, a := range st.JobsOn(crit) {
		for k := 0; k < samples; k++ {
			b := r.Intn(in.Jobs)
			if st.Assign(b) == crit {
				continue
			}
			aC, bC := completionAfterSwap(st, int(a), b)
			if v := math.Max(aC, bC); v < bestMax {
				bestMax, bestA, bestB = v, int(a), b
			}
		}
	}
	return bestMax, bestA, bestB
}

// TestSampledCriticalSwapMatchesOracle pins the screened sampled scan to
// the unscreened one: from equal states and equal RNG streams every call
// must return the same swap, the same bestMax bits and leave the same RNG
// state, along trajectories that commit each found swap. The mix covers
// range-based and CVB-generated matrices, tie-heavy integer ones, a start with every job
// on one machine, and sample counts below, at, just under, just over and
// several times the scan's batch size — partial last batches and scans
// that span batches.
func TestSampledCriticalSwapMatchesOracle(t *testing.T) {
	o := schedule.DefaultObjective
	cvb, err := etc.GenSpec{Jobs: 96, Machs: 8, Class: etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High}, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	instances := append(diffInstances(), cvb, tieInstance(48, 6, 26))
	for i, in := range instances {
		starts := []schedule.Schedule{
			schedule.NewRandom(in, rng.New(uint64(i)+80)),
			make(schedule.Schedule, in.Jobs), // every job on machine 0
		}
		for si, start := range starts {
			for _, samples := range []int{1, 7, 63, 64, 65, 200} {
				a := schedule.NewState(in, start)
				b := schedule.NewState(in, start.Clone())
				ra, rb := rng.New(uint64(samples)), rng.New(uint64(samples))
				for step := 0; step < 60; step++ {
					va, aa, ba := sampledCriticalSwap(a, samples, ra)
					vb, ab, bb := sampledCriticalSwapOracle(b, samples, rb)
					if aa != ab || ba != bb || math.Float64bits(va) != math.Float64bits(vb) || *ra != *rb {
						t.Fatalf("instance %d start %d samples %d step %d: screened (%v, %d, %d) vs oracle (%v, %d, %d), rng equal %v",
							i, si, samples, step, va, aa, ba, vb, ab, bb, *ra == *rb)
					}
					if aa < 0 {
						// Nothing found: move one job off the critical
						// machine so the trajectory keeps going.
						j := int(a.JobsOn(a.MakespanMachine())[0])
						to := (a.Assign(j) + 1) % in.Machs
						a.Move(j, to)
						b.Move(j, to)
						continue
					}
					tryCommitSwap(a, o, o.Of(a), aa, ba)
					tryCommitSwap(b, o, o.Of(b), ab, bb)
				}
				if !a.Schedule().Equal(b.Schedule()) {
					t.Fatalf("instance %d start %d samples %d: trajectories diverged", i, si, samples)
				}
			}
		}
	}
}
