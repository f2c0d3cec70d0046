package schedule_test

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/localsearch"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// The shipped LMCTS (package localsearch, through
// ScanCache.BestCriticalSwap) against the reference full scan SwapScan.
// localsearch imports schedule, so these tests live in the external test
// package.

// lmctsInstances yields the instance mix of the trajectory differential:
// generic and tie-heavy, the same mix localsearch's differentials use.
func lmctsInstances() []*etc.Instance {
	return []*etc.Instance{
		etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 21, Jobs: 64, Machs: 8}),
		etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 22, Jobs: 96, Machs: 5}),
		schedule.TieInstance(48, 6, 23),
		schedule.TieInstance(40, 4, 24),
		schedule.TieInstance(24, 3, 25),
	}
}

// TestLMCTSCachedMatchesSweepReference is the bounded scan's trajectory
// differential: the shipped LMCTS (ScanCache.BestCriticalSwap) must walk
// the exact trajectory of the retained unpruned full-sweep formulation —
// every committed swap the same — across generic and tie-heavy
// instances. Together with localsearch's TestLMCTSSweepMatchesScalar
// this chains cached == sweep == scalar.
func TestLMCTSCachedMatchesSweepReference(t *testing.T) {
	o := schedule.DefaultObjective
	var scan schedule.SwapScan
	for i, in := range lmctsInstances() {
		start := schedule.NewRandom(in, rng.New(uint64(i)+70))
		a := schedule.NewState(in, start)
		b := schedule.NewState(in, start.Clone())
		for step := 0; step < 80; step++ {
			localsearch.LMCTS{}.Improve(a, o, 1, nil)
			lmctsSweepScan(b, o, 1, &scan)
			if !a.Schedule().Equal(b.Schedule()) {
				t.Fatalf("instance %d step %d: cached LMCTS diverged from sweep reference", i, step)
			}
		}
	}
}

// lmctsSweepScan is the pre-cache LMCTS formulation — a full batched
// sweep of the critical neighborhood every iteration — kept as the
// reference the cached rewrite is differentially tested and benchmarked
// against.
func lmctsSweepScan(st *schedule.State, o schedule.Objective, iters int, scan *schedule.SwapScan) {
	cur := o.Of(st)
	for k := 0; k < iters; k++ {
		f, ok := sweepCriticalSwap(st, o, cur, scan)
		if !ok {
			return
		}
		cur = f
	}
}

// sweepCriticalSwap performs one steepest swap step of the full LMCTS
// neighborhood without the scan cache: the partner-side invariants are
// captured once per step (SwapScan.Begin) and every critical job folds
// its best partner from the flat capture.
//
// The historical full scan walked every partner job in ascending id order
// with a strict-< fold, so among candidates tied on max(aC, bC) the first
// critical job in SPT order won, and for that job the smallest partner id.
// The batched scan reproduces that winner exactly: per critical job it
// keeps the minimum with an explicit smallest-id tie-break across the
// machine-grouped sweeps, then folds per-job minima strictly — pinned by
// TestSwapScanDifferential. Like the shipped step, it commits the swap
// only if the scalarised fitness improves.
func sweepCriticalSwap(st *schedule.State, o schedule.Objective, cur float64, scan *schedule.SwapScan) (float64, bool) {
	crit := st.MakespanMachine()
	critJobs := st.JobsOn(crit)
	if len(critJobs) == 0 {
		return cur, false
	}
	bestA, bestB := -1, -1
	bestMax := st.Completion(crit) // any accepted swap must reduce the critical completion pair
	scan.Begin(st, crit)
	for _, a := range critJobs {
		v, b := scan.BestPartner(int(a))
		if b >= 0 && v < bestMax {
			bestMax, bestA, bestB = v, int(a), b
		}
	}
	if bestA < 0 {
		return cur, false
	}
	f := st.FitnessAfterSwap(o, bestA, bestB)
	if f >= cur {
		return cur, false
	}
	st.Swap(bestA, bestB)
	return f, true
}

// BenchmarkLMCTSSweep measures one full-scan LMCTS step through the
// reference swap scan (SwapScan.Begin, then BestPartner per critical
// job) — the unpruned formulation, retained as the reference the bounded
// scan is measured against. localsearch's BenchmarkLMCTSCachedScan vs
// BenchmarkLMCTSSweep (steady state, same converged state shape) is the
// bounded scan's number; BenchmarkLMCTSSweep vs localsearch's
// BenchmarkLMCTSScalarProbe remains the sweep layer's swap-side number.
// Must report 0 allocs/op (enforced in CI).
func BenchmarkLMCTSSweep(b *testing.B) {
	benchLMCTSSweep(b, 512, 16)
}

// BenchmarkLMCTSSweepLarge is the sweep reference at the 2048×64 scale,
// where the O(critical jobs × jobs) full scan is ~65k pair evaluations
// per iteration.
func BenchmarkLMCTSSweepLarge(b *testing.B) {
	benchLMCTSSweep(b, 2048, 64)
}

// benchLMCTSSweep scans a state converged to an LMCTS local optimum, the
// steady state the cached-vs-sweep benchmarks measure: every step is one
// full neighborhood scan that finds nothing and commits nothing.
func benchLMCTSSweep(b *testing.B, jobs, machs int) {
	st, _ := schedule.BenchState(b, jobs, machs)
	o := schedule.DefaultObjective
	localsearch.LMCTS{}.Improve(st, o, 1<<30, nil)
	var scan schedule.SwapScan
	lmctsSweepScan(st, o, 1, &scan) // warm the scan's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lmctsSweepScan(st, o, 1, &scan)
	}
}
