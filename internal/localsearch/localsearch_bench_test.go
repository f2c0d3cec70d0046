package localsearch

import (
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// benchState builds a random evaluated state at the paper's benchmark
// shape (512×16).
func benchState(b *testing.B) (*schedule.State, *rng.Source) {
	b.Helper()
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1, Jobs: 512, Machs: 16})
	r := rng.New(7)
	return schedule.NewState(in, schedule.NewRandom(in, r)), r
}

// slmApplyRevert is the pre-probe formulation of SLM, kept as the
// benchmark reference: every candidate target costs two Moves (apply and
// revert) plus two full fitness reads. BenchmarkSLMScalarProbe vs
// BenchmarkSLMApplyRevert is the headline number of the probe engine;
// BenchmarkSLMSweep stacks the sweep layer's gain on top.
func slmApplyRevert(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
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
			st.Move(j, to)
			if f := o.Of(st); f < bestFit {
				bestFit, bestTo = f, to
			}
			st.Move(j, from)
		}
		if bestTo != from {
			st.Move(j, bestTo)
		}
	}
}

// BenchmarkSLMSweep measures one steepest-local-move iteration through
// the batched sweep path (one FitnessAfterMoveSweep covering all M
// targets, one committed Move at most) — the shipped SLM. Must report 0
// allocs/op — CI runs every Probe/Sweep benchmark with -benchtime=1x and
// fails otherwise. BenchmarkSLMSweep vs BenchmarkSLMScalarProbe is the
// headline number of the sweep layer's move side.
func BenchmarkSLMSweep(b *testing.B) {
	st, r := benchState(b)
	o := schedule.DefaultObjective
	SLM{}.Improve(st, o, 1, r) // warm the state-owned sweep buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SLM{}.Improve(st, o, 1, r)
	}
}

// BenchmarkSLMScalarProbe is the pre-sweep formulation (one scalar probe
// per target, baseline re-read per iteration), kept as the reference the
// sweep is measured against.
func BenchmarkSLMScalarProbe(b *testing.B) {
	st, r := benchState(b)
	o := schedule.DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slmScalarProbe(st, o, 1, r)
	}
}

// BenchmarkSLMApplyRevert is the historical 2(M−1)-Move formulation on
// the same instance shape, for direct comparison with BenchmarkSLMProbe.
func BenchmarkSLMApplyRevert(b *testing.B) {
	st, r := benchState(b)
	o := schedule.DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slmApplyRevert(st, o, 1, r)
	}
}

// BenchmarkLMCTSProbe measures one sampled LMCTS steepest-swap step
// (critical-machine scan over random partners, probe-gated commit); the
// sampled scan's candidate order is the RNG stream itself, so it runs
// its own screened loop instead of the bounded full scan.
func BenchmarkLMCTSProbe(b *testing.B) {
	st, r := benchState(b)
	o := schedule.DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampledLMCTS{Samples: 64}.Improve(st, o, 1, r)
	}
}

// BenchmarkSampledLMCTSLarge is the sampled step at batch-large's shape,
// 16384×256 c_hihi, whose 32 MiB matrix spills the L2. A step's first
// loads all fall in the critical machine's 128 KiB column; those that
// miss the scan overlaps by loading a whole batch of drawn partners
// before it screens any of them. Must report 0 allocs/op — CI runs every
// Sampled benchmark with -benchtime=1x and fails otherwise.
func BenchmarkSampledLMCTSLarge(b *testing.B) {
	benchSampledLarge(b, 64)
}

// BenchmarkSampledLMCTSLargeMultiBatch is the large step at 200 samples
// per critical job: three full batches and a partial one, so the CI
// allocation guard covers the multi-batch path too.
func BenchmarkSampledLMCTSLargeMultiBatch(b *testing.B) {
	benchSampledLarge(b, 200)
}

func benchSampledLarge(b *testing.B, samples int) {
	in, err := etc.GenSpec{Jobs: 16384, Machs: 256, Class: etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High}, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	o := schedule.DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampledLMCTS{Samples: samples}.Improve(st, o, 1, r)
	}
}

// benchStateShape builds a random evaluated state of an explicit shape —
// the 2048×64 rung of the cached-scan headline benchmarks.
func benchStateShape(b *testing.B, jobs, machs int) *schedule.State {
	b.Helper()
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 1, Jobs: jobs, Machs: machs})
	return schedule.NewState(in, schedule.NewRandom(in, rng.New(7)))
}

// converge drives the state to an LMCTS local optimum, the steady state
// the cached-vs-sweep benchmarks measure: every subsequent Improve call
// is one full neighborhood scan that finds nothing (and commits nothing).
// The bounded scan skips every pair that provably loses to the best found
// so far, while the sweep formulation re-scans every pair.
func converge(st *schedule.State, o schedule.Objective) {
	LMCTS{}.Improve(st, o, 1<<30, nil)
}

// BenchmarkLMCTSCachedScan measures the shipped LMCTS through the
// bounded critical-swap scan on the same converged 512×16 state
// BenchmarkLMCTSSweep (internal/schedule) scans. Must report 0 allocs/op — CI runs every
// CachedScan benchmark with -benchtime=1x and fails otherwise.
func BenchmarkLMCTSCachedScan(b *testing.B) {
	st, _ := benchState(b)
	o := schedule.DefaultObjective
	converge(st, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LMCTS{}.Improve(st, o, 1, nil)
	}
}

// BenchmarkLMCTSCachedScanLarge is the bounded scan at 2048×64, against
// BenchmarkLMCTSSweepLarge's (internal/schedule) ~65k pairs per step, at
// 0 allocs/op.
func BenchmarkLMCTSCachedScanLarge(b *testing.B) {
	st := benchStateShape(b, 2048, 64)
	o := schedule.DefaultObjective
	converge(st, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LMCTS{}.Improve(st, o, 1, nil)
	}
}

// BenchmarkLMCTSScalarProbe is the pre-sweep full scan (every partner
// job through the scalar pair query), kept as the reference the swap
// sweep is measured against.
func BenchmarkLMCTSScalarProbe(b *testing.B) {
	st, _ := benchState(b)
	o := schedule.DefaultObjective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lmctsScalarScan(st, o, 1, nil)
	}
}
