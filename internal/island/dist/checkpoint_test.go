package dist

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gridcma/internal/run"
	"gridcma/internal/schedule"
	"gridcma/internal/transport"
)

// checkpointCoord builds a coordinator of the rig that checkpoints to
// path, over pinned in-process workers.
func checkpointCoord(t testing.TB, rig *tortureRig, path string) *Coordinator {
	t.Helper()
	cfg := rig.dcfg
	cfg.CheckpointPath = path
	pinned := make([]*Worker, cfg.Workers)
	for w := range pinned {
		pinned[w] = NewPinnedWorker(rig.in)
	}
	coord, err := New(cfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(pinned[w]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// halfCheckpoint runs the rig for half its budget and returns the
// checkpoint file it leaves.
func halfCheckpoint(t testing.TB, rig *tortureRig) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dist.ckpt")
	coord := checkpointCoord(t, rig, path)
	defer coord.Close()
	if _, _, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters / 2}, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// resumeFrom writes data as the checkpoint file and runs the rig for
// iters iterations.
func resumeFrom(t testing.TB, rig *tortureRig, data []byte, iters int) (run.Result, *Report, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dist.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	coord := checkpointCoord(t, rig, path)
	defer coord.Close()
	return coord.Run(rig.in, run.Budget{MaxIterations: iters}, 1)
}

// evaluatesTo reports whether res's best schedule is valid on the rig
// and evaluates to res's makespan, flowtime and fitness, bit for bit.
func evaluatesTo(rig *tortureRig, res run.Result) bool {
	if res.Best.Validate(rig.in) != nil {
		return false
	}
	st := schedule.NewState(rig.in, res.Best)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return same(st.Makespan(), res.Makespan) && same(st.Flowtime(), res.Flowtime) &&
		same(schedule.DefaultObjective.Of(st), res.Fitness)
}

// TestBestEvaluatesBitForBit is the rig's 4-iteration run, whose best
// once reported flowtime 89622.44495859017, read from an engine's running
// accumulator, where its schedule evaluates to 89622.44495859016. Every
// reported metric must be what the best schedule evaluates to.
func TestBestEvaluatesBitForBit(t *testing.T) {
	rig := testRig(t)
	coord := checkpointCoord(t, rig, "")
	defer coord.Close()
	res, _, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters / 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !evaluatesTo(rig, res) {
		st := schedule.NewState(rig.in, res.Best)
		t.Fatalf("best reports makespan %v, flowtime %v, fitness %v; its schedule evaluates to %v, %v, %v",
			res.Makespan, res.Flowtime, res.Fitness, st.Makespan(), st.Flowtime(), schedule.DefaultObjective.Of(st))
	}
}

// TestCorruptCheckpointStartsFresh: a checkpoint whose populations or
// best schedule are not schedules of the run's instance is discarded,
// and the run starts fresh with the uninterrupted run's bytes. Stored
// metrics are never trusted: a valid best schedule with lying metrics
// resumes with metrics recomputed from the schedule.
func TestCorruptCheckpointStartsFresh(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	data := halfCheckpoint(t, rig)
	edit := func(f func(cp *checkpoint)) []byte {
		var cp checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		f(&cp)
		out, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		cp   []byte
	}{
		{"short best with negative metrics", edit(func(cp *checkpoint) {
			cp.BestSched = cp.BestSched[:3]
			cp.BestFitness, cp.BestMakespan = -1, -1
		})},
		{"machine id past the end", edit(func(cp *checkpoint) { cp.Pops[1][4][0] = rig.in.Machs })},
		{"short population", edit(func(cp *checkpoint) { cp.Pops[2] = cp.Pops[2][1:] })},
		{"alive island without a population", edit(func(cp *checkpoint) { cp.Pops[3] = nil })},
		{"digest missing", edit(func(cp *checkpoint) { cp.Digests = cp.Digests[1:] })},
		{"negative iterations", edit(func(cp *checkpoint) { cp.TotalIters = -4 })},
		{"best missing", edit(func(cp *checkpoint) { cp.BestSched = nil })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, rep, err := resumeFrom(t, rig, tc.cp, rig.iters)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.RoundMs) != rig.rounds {
				t.Fatalf("ran %d rounds: the run resumed from the corrupt file", len(rep.RoundMs))
			}
			if err := sameResult(res, ref); err != nil {
				t.Fatalf("fresh run diverged from the uninterrupted run: %v", err)
			}
		})
	}

	// Lying metrics on a valid best: the run resumes (no round is left to
	// run) and reports what the schedule evaluates to.
	lying := edit(func(cp *checkpoint) { cp.BestFitness, cp.BestMakespan, cp.BestFlowtime = -1, -1, -1 })
	res, rep, err := resumeFrom(t, rig, lying, rig.iters/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RoundMs) != 0 || !evaluatesTo(rig, res) {
		t.Fatalf("ran %d rounds and reported makespan %v, flowtime %v, fitness %v for its best", len(rep.RoundMs), res.Makespan, res.Flowtime, res.Fitness)
	}
}

// FuzzCheckpoint decodes arbitrary checkpoint bytes against the rig's
// run, seeded with a real checkpoint the rig wrote halfway through its
// budget, one whose best schedule is 3 jobs long and one without a best.
// A checkpoint decodeCheckpoint accepts is what a resume runs from: every
// alive island's population must be a full mesh of valid schedules, and
// the best it resumes with must be a valid schedule that evaluates to
// the makespan, flowtime and fitness reported for it, bit for bit.
func FuzzCheckpoint(f *testing.F) {
	rig, err := newTortureRig()
	if err != nil {
		f.Fatal(err)
	}
	cells := *rig.dcfg.Spec.Width * *rig.dcfg.Spec.Height
	saved := halfCheckpoint(f, rig)
	f.Add(saved)
	edit := func(edit func(cp *checkpoint)) []byte {
		var cp checkpoint
		if err := json.Unmarshal(saved, &cp); err != nil {
			f.Fatal(err)
		}
		edit(&cp)
		out, err := json.Marshal(&cp)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(edit(func(cp *checkpoint) { cp.BestSched, cp.BestFitness, cp.BestMakespan = cp.BestSched[:3], -1, -1 }))
	f.Add(edit(func(cp *checkpoint) { cp.BestSched = nil }))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data, rig.in, 1, rig.dcfg.Islands, rig.dcfg.Workers, cells)
		if err != nil {
			return
		}
		for i, pop := range cp.pops() {
			if !cp.Alive[i] {
				continue
			}
			if len(pop) != cells {
				t.Fatalf("alive island %d resumes with %d individuals, want %d", i, len(pop), cells)
			}
			for k, s := range pop {
				if err := s.Validate(rig.in); err != nil {
					t.Fatalf("island %d individual %d: %v", i, k, err)
				}
			}
		}
		if res := cp.best(rig.in, schedule.DefaultObjective); !evaluatesTo(rig, res) {
			t.Fatalf("resumed best (makespan %v, flowtime %v, fitness %v) is not what its schedule evaluates to", res.Makespan, res.Flowtime, res.Fitness)
		}
	})
}
