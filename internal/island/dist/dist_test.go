package dist

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
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

// TestDistMatchesInProcessChannelTransport is half the determinism
// contract: over the in-process transport, a failure-free distributed run
// is bit-identical to the wholesale reference loop for any worker count.
// The library's island engine (InProcess) is the same loop over pinned
// workers; it is held to the reference on the rig here, and on three
// island, segment and migrant counts by the island package's
// TestStatesPathMatchesWholesale.
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
			t.Fatalf("workers=%d diverged from the reference loop: %v", workers, err)
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

	cfg, err := islandConfig(rig.dcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(p.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1, nil), ref); err != nil {
		t.Errorf("in-process engine diverged from the reference loop: %v", err)
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
	go transport.NewServer(NewWorker()).Serve(ln)
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
			t.Fatalf("workers=%d over TCP diverged from the reference loop: %v", workers, err)
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
	plan := []MsgFault{{Worker: 1, Round: 1, Kind: MsgKill, Count: 1}}
	res, rep, err := rig.runOnce(newFaultPlan(plan, time.Millisecond), 1, time.Minute)
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
	plan := []MsgFault{{Worker: 1, Round: 1, Kind: MsgDown, Count: 1}}
	res, rep, err := rig.runOnce(newFaultPlan(plan, time.Millisecond), 1, time.Minute)
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

// TestDefaultRestartBudget pins MaxRestarts' default of 3. Worker 1
// starts, is dead by its first call, and then fails the given number of
// restarts before the next one succeeds: 3 failed restarts abandon it
// and lose its islands, 2 leave the run bit-identical to a clean one.
func TestDefaultRestartBudget(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	for _, tc := range []struct {
		failedRestarts int
		survivors      []int
		restarts       int
	}{
		{failedRestarts: 3, survivors: []int{0, 2}, restarts: 0},
		{failedRestarts: 2, survivors: []int{0, 1, 2, 3}, restarts: 1},
	} {
		cfg := rig.dcfg
		cfg.MaxRestarts = 0
		starts := 0 // of worker 1, under the handle's lock
		coord, err := New(cfg, func(w int) (transport.Client, error) {
			l := transport.NewLocal(NewPinnedWorker(rig.in))
			if w != 1 {
				return l, nil
			}
			starts++
			switch {
			case starts == 1:
				l.Close() // the process dies before its first call
			case starts <= 1+tc.failedRestarts:
				return nil, errors.New("worker will not start")
			}
			return l, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, rep, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1)
		coord.Close()
		if err != nil {
			t.Fatalf("%d failed restarts: %v", tc.failedRestarts, err)
		}
		if !sameInts(rep.Survivors, tc.survivors) || rep.Restarts != tc.restarts || starts != 1+tc.failedRestarts+tc.restarts {
			t.Fatalf("%d failed restarts: survivors %v, %d restarts, %d starts; want %v, %d, %d",
				tc.failedRestarts, rep.Survivors, rep.Restarts, starts, tc.survivors, tc.restarts, 1+tc.failedRestarts+tc.restarts)
		}
		if len(tc.survivors) == rig.dcfg.Islands {
			if err := sameResult(res, ref); err != nil {
				t.Fatalf("a recovered worker changed the result: %v", err)
			}
		}
	}
}

// TestBadSegmentReplyLosesIsland drives the coordinator against a worker
// that answers its segment calls with a corrupted reply, over the
// in-process transport. The coordinator evaluates nothing it receives,
// so callSegment's checks are all that stand between such a reply and
// the migration ranking: each lie must cost the lying worker's islands
// (a permanent failure, recorded as a death in round 0) and the run must
// finish on the honest worker's islands, without a panic.
func TestBadSegmentReplyLosesIsland(t *testing.T) {
	rig := testRig(t)
	for _, tc := range []struct {
		name string
		lie  func(seg *transport.SegmentResponse)
		want string
	}{
		{"short population", func(seg *transport.SegmentResponse) { seg.Pop = seg.Pop[1:] }, "population of"},
		{"machine id past the end", func(seg *transport.SegmentResponse) { seg.Pop[3][0] = rig.in.Machs }, "invalid machine"},
		{"negative machine id", func(seg *transport.SegmentResponse) { seg.Pop[0][5] = -1 }, "invalid machine"},
		{"short schedule", func(seg *transport.SegmentResponse) { seg.Pop[2] = seg.Pop[2][:3] }, "length"},
		{"missing fits", func(seg *transport.SegmentResponse) { seg.Fits = nil }, "fitness values"},
		{"NaN fit", func(seg *transport.SegmentResponse) { seg.Fits[4] = math.NaN() }, "fitness NaN"},
		{"infinite fit", func(seg *transport.SegmentResponse) { seg.Fits[1] = math.Inf(-1) }, "fitness -Inf"},
		{"invalid best", func(seg *transport.SegmentResponse) { seg.Best = seg.Best[:len(seg.Best)-1] }, "best"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			honest := NewPinnedWorker(rig.in)
			liar := transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
				resp, err := honest.Handle(ctx, req)
				if err == nil && resp.Seg != nil {
					tc.lie(resp.Seg)
				}
				return resp, err
			})
			handlers := []transport.Handler{NewPinnedWorker(rig.in), liar}
			coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
				return transport.NewLocal(handlers[w]), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			res, rep, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1)
			if err != nil {
				t.Fatalf("run should complete on the honest worker's islands, got %v", err)
			}
			if want := []int{0, 2}; !sameInts(rep.Survivors, want) {
				t.Fatalf("survivors %v, want %v", rep.Survivors, want)
			}
			for _, d := range rep.Deaths {
				if d.Island%2 != 1 || d.Round != 0 || !strings.Contains(d.Reason, tc.want) {
					t.Fatalf("death %+v: want an odd island lost in round 0 for %q", d, tc.want)
				}
			}
			if err := res.Best.Validate(rig.in); err != nil || res.Iterations != rig.iters {
				t.Fatalf("result %+v (best: %v) did not finish the budget validly", res, err)
			}
		})
	}
}

// TestBestEvaluatesBitForBit is the rig's 4-iteration run, whose best
// once reported flowtime 89622.44495859017, read from an engine's running
// accumulator, where its schedule evaluates to 89622.44495859016. Every
// reported metric must be what the best schedule evaluates to.
func TestBestEvaluatesBitForBit(t *testing.T) {
	rig := testRig(t)
	pinned := make([]*Worker, rig.dcfg.Workers)
	for w := range pinned {
		pinned[w] = NewPinnedWorker(rig.in)
	}
	coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(pinned[w]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, _, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters / 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := schedule.NewState(rig.in, res.Best)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if res.Best.Validate(rig.in) != nil || !same(st.Makespan(), res.Makespan) ||
		!same(st.Flowtime(), res.Flowtime) || !same(schedule.DefaultObjective.Of(st), res.Fitness) {
		t.Fatalf("best reports makespan %v, flowtime %v, fitness %v; its schedule evaluates to %v, %v, %v",
			res.Makespan, res.Flowtime, res.Fitness, st.Makespan(), st.Flowtime(), schedule.DefaultObjective.Of(st))
	}
}

// TestMaxTimeEndsAtRoundBoundary: a wall-clock budget ends the run
// after the round in which the time ran out, with a valid best and
// every island's iterations counted in whole rounds.
func TestMaxTimeEndsAtRoundBoundary(t *testing.T) {
	rig := testRig(t)
	pinned := NewPinnedWorker(rig.in)
	coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(pinned), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, rep, err := coord.Run(rig.in, run.Budget{MaxTime: 50 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(rig.in); err != nil {
		t.Fatalf("best: %v", err)
	}
	if rep.Rounds < 1 || len(rep.Digests) != rep.Rounds || res.Iterations != rep.Rounds*rig.dcfg.MigrationEvery {
		t.Fatalf("%d rounds, %d digests, %d iterations: not whole rounds of %d", rep.Rounds, len(rep.Digests), res.Iterations, rig.dcfg.MigrationEvery)
	}
	if len(rep.Survivors) != rig.dcfg.Islands {
		t.Fatalf("lost islands without faults: %v", rep.Survivors)
	}
	if _, _, err := coord.Run(rig.in, run.Budget{}, 1); err == nil {
		t.Fatal("an unbounded budget was accepted")
	}
}

// TestCancelledRunReturnsBestSoFar: a run cancelled in its third round
// returns the context's error with a valid best no worse than the best
// of the first two rounds, and the rounds it finished.
func TestCancelledRunReturnsBestSoFar(t *testing.T) {
	rig := testRig(t)
	twoRounds := 2 * rig.dcfg.MigrationEvery
	ref := inProcReference(t, rig, twoRounds, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pinned := NewPinnedWorker(rig.in)
	coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(transport.HandlerFunc(func(hctx context.Context, req *transport.Request) (*transport.Response, error) {
			if req.Seg != nil && req.Seg.Round == 2 {
				cancel()
			}
			return pinned.Handle(hctx, req)
		})), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, rep, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}.WithContext(ctx), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := res.Best.Validate(rig.in); err != nil {
		t.Fatalf("best so far: %v", err)
	}
	if res.Fitness > ref.Fitness || res.Iterations != twoRounds || rep.Rounds != 2 {
		t.Fatalf("fitness %v after %d iterations and %d rounds; want at most %v after %d iterations and 2 rounds",
			res.Fitness, res.Iterations, rep.Rounds, ref.Fitness, twoRounds)
	}
	if len(rep.Deaths) != 0 {
		t.Fatalf("cancellation was recorded as island deaths: %v", rep.Deaths)
	}
}

// TestWorkerRestartBetweenRounds: worker 1 dies between rounds 1 and 2.
// Its next call fails, the supervisor restarts it through the factory,
// and the fresh Worker, its stash empty, rebuilds its islands' meshes
// from the shipped populations. The digests and the result must equal
// the failure-free run's, and the result the reference loop's.
func TestWorkerRestartBetweenRounds(t *testing.T) {
	rig := testRig(t)
	ref := inProcReference(t, rig, rig.iters, 1)
	clean, cleanRep, err := rig.runOnce(nil, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	var started []*Worker // worker 1, one per start
	coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
		wk := NewPinnedWorker(rig.in)
		if w != 1 {
			return transport.NewLocal(wk), nil
		}
		first := len(started) == 0
		started = append(started, wk)
		var l *transport.Local
		l = transport.NewLocal(transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
			if first && req.Seg != nil && req.Seg.Round == 2 {
				l.Close() // the process died after answering round 1
				return nil, transport.ErrClosed
			}
			return wk.Handle(ctx, req)
		}))
		return l, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, rep, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 || len(started) != 2 {
		t.Fatalf("%d restarts, %d starts of worker 1; want 1 and 2", rep.Restarts, len(started))
	}
	if got := stashed(t, started[0], 9); len(got) != 2 || got[1] != 1 || got[3] != 1 {
		t.Fatalf("the dead worker's stash %v, want the meshes of its islands 1 and 3", got)
	}
	if !sameStrings(rep.Digests, cleanRep.Digests) {
		t.Fatal("a restarted worker changed the digest trajectory")
	}
	if err := sameResult(res, clean); err != nil {
		t.Fatalf("a restarted worker changed the result: %v", err)
	}
	if err := sameResult(res, ref); err != nil {
		t.Fatalf("diverged from the reference loop: %v", err)
	}
}

// TestStashBounded: a run that completes leaves no States behind on its
// workers (the final segment stores nothing), and a cancelled one leaves
// at most one mesh per island the worker served.
func TestStashBounded(t *testing.T) {
	rig := testRig(t)
	workers := []*Worker{NewPinnedWorker(rig.in), NewPinnedWorker(rig.in)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAt := -1
	coord, err := New(rig.dcfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
			resp, err := workers[w].Handle(ctx, req)
			if req.Seg != nil && req.Seg.Round == cancelAt {
				cancel()
			}
			return resp, err
		})), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if _, _, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}, 1); err != nil {
		t.Fatal(err)
	}
	for w, wk := range workers {
		if got := stashed(t, wk, 9); len(got) != 0 {
			t.Fatalf("worker %d keeps %v after the run", w, got)
		}
	}

	cancelAt = 1
	if _, _, err := coord.Run(rig.in, run.Budget{MaxIterations: rig.iters}.WithContext(ctx), 1); err == nil {
		t.Fatal("the cancelled run reported success")
	}
	kept := 0
	for w, wk := range workers {
		for island, n := range stashed(t, wk, 9) {
			if island%len(workers) != w || n != 1 {
				t.Fatalf("worker %d keeps %d meshes of island %d", w, n, island)
			}
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("the cancelled run stashed nothing: the bound was not exercised")
	}
}

// TestRoundDigestMatchesReference pins roundDigest's bytes to the fold
// it stages: round index, then per island a live marker and every
// machine id as a little-endian uint32, each written to the hash on its
// own. Digest trajectories recorded by earlier runs stay comparable only
// while the two agree.
func TestRoundDigestMatchesReference(t *testing.T) {
	reference := func(round int, alive []bool, pops [][]schedule.Schedule) string {
		h := sha256.New()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(round))
		h.Write(b[:])
		for i, pop := range pops {
			if !alive[i] {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			for _, s := range pop {
				for _, m := range s {
					binary.LittleEndian.PutUint32(b[:4], uint32(m))
					h.Write(b[:4])
				}
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	r := rng.New(5)
	for _, tc := range []struct {
		round int
		alive []bool
	}{{0, []bool{true}}, {3, []bool{true, false, true}}, {1 << 40, []bool{false, false}}, {7, []bool{true, true, true, true}}} {
		pops := make([][]schedule.Schedule, len(tc.alive))
		for i := range pops {
			for k := 0; k < 1+r.Intn(3); k++ {
				s := make(schedule.Schedule, r.Intn(40))
				for j := range s {
					s[j] = r.Intn(300)
				}
				pops[i] = append(pops[i], s)
			}
		}
		if got, want := roundDigest(tc.round, tc.alive, pops), reference(tc.round, tc.alive, pops); got != want {
			t.Fatalf("round %d alive %v: digest %s, reference %s", tc.round, tc.alive, got, want)
		}
	}
}
