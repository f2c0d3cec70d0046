package dist

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridcma/internal/chaos"
	"gridcma/internal/island"
	"gridcma/internal/run"
	"gridcma/internal/transport"
)

// testRig builds the shared scenario (same as the torture rig) and fails
// the test on any setup error.
func testRig(t *testing.T) *tortureRig {
	t.Helper()
	rig, err := newTortureRig()
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// inProcReference runs the in-process island scheduler on the rig.
func inProcReference(t *testing.T, rig *tortureRig, iters int, seed uint64) run.Result {
	t.Helper()
	base, err := rig.dcfg.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	isl, err := island.New(island.Config{
		Islands:        rig.dcfg.Islands,
		MigrationEvery: rig.dcfg.MigrationEvery,
		Migrants:       rig.dcfg.Migrants,
		Base:           base,
	})
	if err != nil {
		t.Fatal(err)
	}
	return isl.Run(rig.in, run.Budget{MaxIterations: iters}, seed, nil)
}

// TestDistMatchesInProcessChannelTransport is half the determinism
// contract: over the in-process transport, a failure-free distributed run
// is bit-identical to the island scheduler for any worker count.
func TestDistMatchesInProcessChannelTransport(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	var digests []string
	for _, workers := range []int{1, 2, 8} {
		cfg := rig.dcfg
		cfg.Workers = workers
		pinned := make([]*Worker, workers)
		for w := range pinned {
			pinned[w] = NewPinnedWorker(rig.in)
		}
		coord, err := New(cfg, func(w int) (transport.Client, error) {
			return transport.NewLocal(pinned[w]), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1)
		coord.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sameResult(res, ref); err != nil {
			t.Fatalf("workers=%d diverged from in-process scheduler: %v", workers, err)
		}
		if len(rep.Survivors) != rig.dcfg.Islands {
			t.Fatalf("workers=%d: lost islands without faults: %v", workers, rep.Survivors)
		}
		if digests == nil {
			digests = rep.Digests
		} else if !sameStrings(digests, rep.Digests) {
			t.Fatalf("workers=%d: digest trajectory depends on worker count", workers)
		}
	}
}

// startTCPWorker serves a spec-materialising worker on a loopback
// listener and returns its address.
func startTCPWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go transport.Serve(ln, NewWorker())
	return ln.Addr().String()
}

// TestDistMatchesInProcessTCPTransport is the other half: the same bytes
// over real sockets, workers reconstructing the instance from the gen
// spec, for worker counts 1, 2 and 8.
func TestDistMatchesInProcessTCPTransport(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	for _, workers := range []int{1, 2, 8} {
		addrs := make([]string, workers)
		for w := range addrs {
			addrs[w] = startTCPWorker(t)
		}
		cfg := rig.dcfg
		cfg.Workers = workers
		cfg.Instance = "64x8:c_hihi:s5"
		coord, err := New(cfg, func(w int) (transport.Client, error) {
			return transport.Dial(addrs[w], time.Second)
		})
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1)
		coord.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := sameResult(res, ref); err != nil {
			t.Fatalf("workers=%d over TCP diverged from in-process scheduler: %v", workers, err)
		}
		if len(rep.Survivors) != rig.dcfg.Islands {
			t.Fatalf("workers=%d: lost islands without faults: %v", workers, rep.Survivors)
		}
	}
}

// TestKillRestartRecovery: a transient worker kill is absorbed — the
// supervisor restarts the worker warm and the run finishes with the
// failure-free bytes.
func TestKillRestartRecovery(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	plan := []chaos.MsgFault{{Worker: 1, Round: 1, Kind: chaos.MsgKill, Count: 1}}
	res, rep, err := rig.runOnce(plan, 1, false, time.Minute, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(res, ref); err != nil {
		t.Fatalf("transient kill changed the result: %v", err)
	}
	if rep.Restarts < 1 {
		t.Fatalf("expected at least one supervisor restart, got %d", rep.Restarts)
	}
	if len(rep.RecoveryMs) < 1 {
		t.Fatalf("expected a recovery sample after the restart")
	}
	if len(rep.Survivors) != rig.dcfg.Islands {
		t.Fatalf("lost islands on a transient fault: %v", rep.Survivors)
	}
}

// TestPermanentDeathDegradesGracefully: a worker that can never restart
// takes its pinned islands down; the ring heals and the run completes on
// the survivors, with the loss recorded.
func TestPermanentDeathDegradesGracefully(t *testing.T) {
	rig := testRig(t)
	plan := []chaos.MsgFault{{Worker: 1, Round: 1, Kind: chaos.MsgDown, Count: 1}}
	res, rep, err := rig.runOnce(plan, 1, false, time.Minute, time.Millisecond)
	if err != nil {
		t.Fatalf("degraded run should complete, got %v", err)
	}
	want := predictSurvivors(plan, rig.dcfg.Islands, rig.dcfg.Workers, rig.rounds)
	if !sameInts(rep.Survivors, want) {
		t.Fatalf("survivors %v, oracle predicted %v", rep.Survivors, want)
	}
	if len(rep.Deaths) != rig.dcfg.Islands-len(want) {
		t.Fatalf("deaths %v do not account for the lost islands", rep.Deaths)
	}
	for _, d := range rep.Deaths {
		if d.Round != 1 {
			t.Fatalf("island %d died in round %d, fault was scheduled for round 1", d.Island, d.Round)
		}
	}
	if res.Best == nil || res.Iterations != rig.iters {
		t.Fatalf("degraded run did not finish the budget: %+v", res)
	}
	if len(rep.Digests) != rig.rounds {
		t.Fatalf("expected %d round digests, got %d", rig.rounds, len(rep.Digests))
	}
}

// TestHeartbeatMarksDeadWorker unit-tests the liveness loop: a worker
// whose client is gone is flagged within a few periods, without any
// segment traffic.
func TestHeartbeatMarksDeadWorker(t *testing.T) {
	rig := testRig(t)
	cfg := rig.dcfg
	cfg.Heartbeat = 2 * time.Millisecond
	pinned := NewPinnedWorker(rig.in)
	coord, err := New(cfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(pinned), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	h := coord.workers[1]
	h.mu.Lock()
	h.client.Close() // the worker process dies
	h.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go coord.heartbeatLoop(ctx, h, &wg)
	defer wg.Wait()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		dead := h.dead
		h.mu.Unlock()
		if dead {
			cancel()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("heartbeat never marked the dead worker")
}

// TestCheckpointResume: interrupt a checkpointed run halfway, resume with
// a fresh coordinator, and get the uninterrupted run's exact bytes.
func TestCheckpointResume(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	path := filepath.Join(t.TempDir(), "dist.ckpt")

	mkCoord := func() *Coordinator {
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

	// "Crash" after half the budget: the checkpoint holds rounds 0-1.
	c1 := mkCoord()
	if _, _, err := c1.Run(rig.in, run.Budget{MaxIterations: rig.iters / 2}, 1); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A fresh coordinator resumes from the file and finishes the budget.
	c2 := mkCoord()
	res, rep, err := c2.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1)
	c2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(res, ref); err != nil {
		t.Fatalf("resumed run diverged from uninterrupted run: %v", err)
	}
	if len(rep.Digests) != rig.rounds {
		t.Fatalf("resumed run has %d digests, want the full %d", len(rep.Digests), rig.rounds)
	}
}

// TestBudgetMustBeIterationOnly: wall-clock budgets cannot be
// deterministic across transports, so Run refuses them.
func TestBudgetMustBeIterationOnly(t *testing.T) {
	rig := testRig(t)
	pinned := NewPinnedWorker(rig.in)
	coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(pinned), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, _, err := coord.Run(rig.in, run.Budget{MaxTime: time.Second}, 1); err == nil {
		t.Fatal("expected an error for a wall-clock budget")
	}
}
