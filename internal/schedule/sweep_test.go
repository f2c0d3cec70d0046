package schedule

import (
	"math"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// tieInstance builds an instance whose ETC values are drawn from a tiny
// integer set, so exact float64 ties between candidate completions are
// the norm rather than a measure-zero accident — the adversarial input
// for every tie-breaking contract in the sweep layer.
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

// TestFitnessAfterMoveSweepDifferential fuzzes the move sweep against the
// scalar probe: for thousands of random states, the sweep's value for
// every target machine must equal FitnessAfterMove bit for bit, including
// the no-op slot at the job's current machine.
func TestFitnessAfterMoveSweepDifferential(t *testing.T) {
	shapes := []struct{ jobs, machs int }{{8, 1}, {12, 2}, {16, 3}, {64, 8}, {128, 16}, {96, 5}}
	o := Objective{Lambda: 0.75}
	for _, sh := range shapes {
		for _, tie := range []bool{false, true} {
			var in *etc.Instance
			if tie {
				in = tieInstance(sh.jobs, sh.machs, uint64(13*sh.jobs+sh.machs))
			} else {
				in = diffInstance(sh.jobs, sh.machs, uint64(57*sh.jobs+sh.machs))
			}
			r := rng.New(uint64(sh.jobs + sh.machs))
			st := NewState(in, NewRandom(in, r))
			for k := 0; k < 400; k++ {
				j := r.Intn(in.Jobs)
				fits := st.FitnessAfterMoveSweep(o, j, nil)
				if len(fits) != in.Machs {
					t.Fatalf("sweep returned %d targets, want %d", len(fits), in.Machs)
				}
				for to := 0; to < in.Machs; to++ {
					if want := st.FitnessAfterMove(o, j, to); fits[to] != want {
						t.Fatalf("%dx%d tie=%v step %d: sweep[%d→%d] = %.17g, scalar %.17g",
							sh.jobs, sh.machs, tie, k, j, to, fits[to], want)
					}
				}
				// Keep the walk moving so sweeps cover many states.
				st.Move(j, r.Intn(in.Machs))
			}
		}
	}
}

// TestMoveScanDifferential fuzzes the frozen-state probe cache against
// the scalar probe, rebuilding the scan after every mutation — the
// recapture contract of ScanCache.FitnessAfterMove. Tie-heavy instances make
// the cached top-3 completions collide, exercising every branch of the
// cache's exclusion logic.
func TestMoveScanDifferential(t *testing.T) {
	shapes := []struct{ jobs, machs int }{{8, 1}, {12, 2}, {16, 3}, {64, 8}, {128, 16}}
	o := DefaultObjective
	for _, sh := range shapes {
		for _, tie := range []bool{false, true} {
			var in *etc.Instance
			if tie {
				in = tieInstance(sh.jobs, sh.machs, uint64(17*sh.jobs+sh.machs))
			} else {
				in = diffInstance(sh.jobs, sh.machs, uint64(91*sh.jobs+sh.machs))
			}
			r := rng.New(uint64(7*sh.jobs + sh.machs))
			st := NewState(in, NewRandom(in, r))
			for step := 0; step < 120; step++ {
				scan := st.beginMoveScan(o)
				for k := 0; k < 40; k++ {
					j := r.Intn(in.Jobs)
					to := r.Intn(in.Machs) // includes no-op targets
					if got, want := scan.FitnessAfterMove(j, to), st.FitnessAfterMove(o, j, to); got != want {
						t.Fatalf("%dx%d tie=%v step %d: scan probe(%d→%d) = %.17g, scalar %.17g",
							sh.jobs, sh.machs, tie, step, j, to, got, want)
					}
				}
				st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
			}
		}
	}
}

// TestSwapScanDifferential fuzzes the reference swap scan against the
// historical ascending-id scalar scan: for random critical jobs,
// BestPartner must return the exact value and partner the strict-< fold
// over completionAfterSwap in job-id order produced — ties included.
func TestSwapScanDifferential(t *testing.T) {
	shapes := []struct{ jobs, machs int }{{12, 2}, {16, 3}, {64, 8}, {128, 16}}
	for _, sh := range shapes {
		for _, tie := range []bool{false, true} {
			var in *etc.Instance
			if tie {
				in = tieInstance(sh.jobs, sh.machs, uint64(43*sh.jobs+sh.machs))
			} else {
				in = diffInstance(sh.jobs, sh.machs, uint64(83*sh.jobs+sh.machs))
			}
			r := rng.New(uint64(11*sh.jobs + sh.machs))
			st := NewState(in, NewRandom(in, r))
			var scan SwapScan
			for step := 0; step < 200; step++ {
				crit := st.MakespanMachine()
				scan.Begin(st, crit)
				critJobs := st.JobsOn(crit)
				for _, a := range critJobs {
					gotV, gotB := scan.BestPartner(int(a))
					wantV, wantB := math.Inf(1), -1
					for b := 0; b < in.Jobs; b++ {
						if st.Assign(b) == crit {
							continue
						}
						aC, bC := st.completionAfterSwap(int(a), b)
						if v := math.Max(aC, bC); v < wantV {
							wantV, wantB = v, b
						}
					}
					if gotB != wantB || (wantB >= 0 && gotV != wantV) {
						t.Fatalf("%dx%d tie=%v step %d: BestPartner(%d) = (%.17g, %d), scalar scan (%.17g, %d)",
							sh.jobs, sh.machs, tie, step, a, gotV, gotB, wantV, wantB)
					}
				}
				st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
			}
		}
	}
}

// TestSweepsDoNotMutate asserts the sweeps and the scan leave the state
// untouched, exactly like the scalar probes.
func TestSweepsDoNotMutate(t *testing.T) {
	in := diffInstance(64, 8, 5)
	r := rng.New(19)
	st := NewState(in, NewRandom(in, r))
	o := DefaultObjective
	before := st.Clone()
	for k := 0; k < 300; k++ {
		st.FitnessAfterMoveSweep(o, r.Intn(in.Jobs), nil)
		scan := st.beginMoveScan(o)
		scan.FitnessAfterMove(r.Intn(in.Jobs), r.Intn(in.Machs))
	}
	if st.Makespan() != before.Makespan() || st.Flowtime() != before.Flowtime() {
		t.Fatal("sweep mutated makespan/flowtime")
	}
	if !st.Schedule().Equal(before.Schedule()) {
		t.Fatal("sweep mutated the schedule")
	}
}

// TestSweepsAllocationFree guards the sweeps' steady-state allocation
// behaviour (also enforced in CI through the sweep benchmarks).
func TestSweepsAllocationFree(t *testing.T) {
	in := diffInstance(128, 16, 23)
	r := rng.New(4)
	st := NewState(in, NewRandom(in, r))
	o := DefaultObjective
	j := 3
	st.FitnessAfterMoveSweep(o, j, nil) // warm the state-owned buffer
	if n := testing.AllocsPerRun(200, func() {
		st.FitnessAfterMoveSweep(o, j, nil)
	}); n != 0 {
		t.Fatalf("FitnessAfterMoveSweep allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		scan := st.beginMoveScan(o)
		scan.FitnessAfterMove(j, (st.Assign(j)+1)%in.Machs)
	}); n != 0 {
		t.Fatalf("moveScan allocates %v per op", n)
	}
}

// TestFitnessAfterMoveSweepExplicitOut checks the caller-buffer variant
// fills exactly the prefix it reports.
func TestFitnessAfterMoveSweepExplicitOut(t *testing.T) {
	in := diffInstance(32, 6, 31)
	r := rng.New(6)
	st := NewState(in, NewRandom(in, r))
	o := DefaultObjective
	buf := make([]float64, in.Machs+3)
	got := st.FitnessAfterMoveSweep(o, 1, buf)
	if len(got) != in.Machs {
		t.Fatalf("explicit out: len %d, want %d", len(got), in.Machs)
	}
	for to := 0; to < in.Machs; to++ {
		if got[to] != st.FitnessAfterMove(o, 1, to) {
			t.Fatalf("explicit out diverges at target %d", to)
		}
	}
}
