package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"gridcma/internal/eventlog"
	"gridcma/internal/rng"
	"gridcma/internal/transport"
)

// failoverTestConfig parameterises a failover-torture run.
type failoverTestConfig struct {
	// Grid is the grid every node runs (zero = DefaultConfig with Seed).
	Grid Config
	// Seed drives the event scripts, the chaos schedule and every
	// harness decision; one seed reproduces one run exactly.
	Seed uint64
	// Cases is the number of independent kill-and-promote scenarios.
	// Every third case bootstraps the follower via snapshot (the
	// primary starts from a snapshot-truncated WAL).
	Cases int
	// Events is the script length per case.
	Events int
	// Faults is the chaos fault budget per case.
	Faults int
	// Dir is the scratch directory.
	Dir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// failoverTestResult summarises a completed run.
type failoverTestResult struct {
	Cases         int
	Events        int
	Promotions    int
	SnapshotBoots int
	Fenced        int
	StaleTerm     int
	StepErrors    int
	Faults        map[string]int
	FinalDigest   string
}

// chaosDialer manufactures fault-injecting clients over the primary's
// replication handler. The fault schedule is a pure function of its rng
// stream and the call sequence, so a seed reproduces the exact
// interleaving of drops, delays, duplicates, partitions and connection
// kills the follower survived (or didn't).
type chaosDialer struct {
	handler transport.Handler
	r       *rng.Source
	budget  int
	faults  map[string]int

	partition int // calls still inside a partition window
}

func (cd *chaosDialer) dial() (transport.Client, error) {
	return &chaosClient{cd: cd, inner: transport.NewLocal(cd.handler)}, nil
}

type chaosClient struct {
	cd    *chaosDialer
	inner transport.Client
}

func (c *chaosClient) Close() error { return c.inner.Close() }

func (c *chaosClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	cd := c.cd
	if cd.partition > 0 {
		cd.partition--
		return nil, errors.New("chaos: partitioned")
	}
	if cd.budget > 0 && cd.r.Bool(0.25) {
		cd.budget--
		switch cd.r.Intn(5) {
		case 0: // drop: the request never reaches the primary
			cd.faults["drop"]++
			return nil, errors.New("chaos: request dropped")
		case 1: // dup: the request is delivered twice (a retried frame);
			// the first response is lost, the second served. The primary's
			// cursor must tolerate re-pulling the same position.
			cd.faults["dup"]++
			if _, err := c.inner.Call(ctx, req); err != nil {
				return nil, err
			}
			return c.inner.Call(ctx, req)
		case 2: // delay: delivered late but delivered — in a synchronous
			// harness that is indistinguishable from on-time, so it only
			// counts; reordering effects are covered by dup + drop.
			cd.faults["delay"]++
			return c.inner.Call(ctx, req)
		case 3: // partition: this call and the next few all vanish
			cd.faults["partition"]++
			cd.partition = 2
			return nil, errors.New("chaos: partition opened")
		default: // kill: the connection dies mid-call; the next Step
			// must redial through the retry path.
			cd.faults["kill"]++
			c.inner.Close()
			return nil, errors.New("chaos: connection killed")
		}
	}
	return c.inner.Call(ctx, req)
}

// killableHandler lets the harness simulate the primary's death: once
// killed, every replication call fails at the "network".
type killableHandler struct {
	inner  transport.Handler
	killed atomic.Bool
}

func (k *killableHandler) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if k.killed.Load() {
		return nil, errors.New("chaos: primary is dead")
	}
	return k.inner.Handle(ctx, req)
}

// failoverTest is the replication torture: for each seeded case it
// builds a primary + follower pair connected through a fault-injecting
// transport, drives the primary with a deterministic script while the
// follower pulls through drops, delays, duplicated frames, partitions
// and killed connections, then kills the primary at a seeded point and
// promotes the follower. It asserts, per case:
//
//   - the primary's digest after every event, the follower's digest at
//     every live batch end, and the digest after every event of the
//     follower's WAL replayed onto the reference prefix are all
//     bit-identical to a reference grid replay of the same script;
//   - the follower's WAL is byte-for-byte a prefix of the primary's;
//   - promotion bumps the term, and the term survives on disk;
//   - the stale primary is fenced by the new term: its shipping path
//     rejects, and its own write path refuses (split-brain is dead);
//   - a stale-term pull against the promoted node is rejected;
//   - the promoted node, resuming the script where its replica stopped,
//     lands on exactly the reference digest — failover cost events that
//     were never shipped, never correctness.
//
// Every third case routes the follower through snapshot bootstrap (the
// primary's WAL starts past a snapshot, so log shipping alone cannot
// bring a blank follower up).
func failoverTest(cfg failoverTestConfig) (*failoverTestResult, error) {
	if cfg.Grid.MachCap == 0 {
		cfg.Grid = DefaultConfig()
		cfg.Grid.Seed = cfg.Seed
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &failoverTestResult{
		Cases:  cfg.Cases,
		Events: cfg.Events,
		Faults: make(map[string]int),
	}
	for c := 0; c < cfg.Cases; c++ {
		if err := runFailoverCase(cfg, c, res, logf); err != nil {
			return nil, fmt.Errorf("case %d (seed %d): %w", c, cfg.Seed, err)
		}
	}
	logf("failovertest: %d cases, %d promotions, %d snapshot boots, faults %v",
		res.Cases, res.Promotions, res.SnapshotBoots, res.Faults)
	return res, nil
}

func runFailoverCase(cfg failoverTestConfig, c int, res *failoverTestResult, logf func(string, ...any)) error {
	caseSeed := cfg.Seed + uint64(c)*1_000_003
	script := Script(caseSeed, cfg.Grid.MachCap, cfg.Events)
	caseDir := filepath.Join(cfg.Dir, fmt.Sprintf("case-%d", c))
	if err := os.MkdirAll(caseDir, 0o755); err != nil {
		return err
	}

	// Reference trajectory: a plain grid replaying the script. The state
	// digest excludes wall-clock fields, so it is the yardstick both
	// daemons must match event for event.
	refDigest := make([]string, cfg.Events+1)
	ref, err := NewGrid(cfg.Grid)
	if err != nil {
		return err
	}
	refDigest[0] = ref.Digest()
	for i, e := range script {
		e.Seq = uint64(i + 1)
		if err := ref.Apply(e); err != nil {
			return fmt.Errorf("reference apply %d: %w", i, err)
		}
		refDigest[i+1] = ref.Digest()
	}

	// Primary. Every third case it is born from a snapshot taken part
	// way into the script, so its WAL cannot serve a blank follower and
	// the bootstrap path must carry it.
	snapCase := c%3 == 2
	bootSeq := 0
	var pg *Grid
	if snapCase {
		bootSeq = cfg.Events / 4
		g, err := NewGrid(cfg.Grid)
		if err != nil {
			return err
		}
		for i := 0; i < bootSeq; i++ {
			e := script[i]
			e.Seq = uint64(i + 1)
			if err := g.Apply(e); err != nil {
				return err
			}
		}
		pg, err = Restore(g.Snapshot())
		if err != nil {
			return err
		}
	} else {
		pg, err = NewGrid(cfg.Grid)
		if err != nil {
			return err
		}
	}
	primary, err := NewDaemonWith(pg, ServerConfig{Grid: cfg.Grid, LogPath: filepath.Join(caseDir, "primary.log")})
	if err != nil {
		return err
	}
	defer primary.Stop()
	replSrv, err := NewReplServer(primary, ReplConfig{Batch: 32})
	if err != nil {
		return err
	}
	defer replSrv.Close()
	wire := &killableHandler{inner: replSrv}

	// Follower, pulling through chaos.
	follower, err := NewDaemon(ServerConfig{Grid: cfg.Grid, LogPath: filepath.Join(caseDir, "follower.log")})
	if err != nil {
		return err
	}
	defer follower.Stop()
	dialer := &chaosDialer{
		handler: wire,
		r:       rng.New(caseSeed ^ 0xc4a05),
		budget:  cfg.Faults,
		faults:  res.Faults,
	}
	repl, err := NewReplicator(follower, ReplicatorConfig{
		ID:    fmt.Sprintf("case-%d", c),
		Dial:  dialer.dial,
		Batch: 24,
	})
	if err != nil {
		return err
	}
	defer repl.Stop()

	// Drive: apply the script to the primary, interleaving 0–2 follower
	// pull rounds after each event, all sequenced by the harness rng —
	// no goroutines, no timers, one deterministic interleaving per seed.
	// The primary's digest is recorded after every event, the follower's
	// after every pull round, at whatever seq that round left it.
	hr := rng.New(caseSeed ^ 0xfa110)
	kill := bootSeq + (cfg.Events-bootSeq)/2 + hr.Intn((cfg.Events-bootSeq)/4+1)
	ctx := context.Background()
	primaryDigest := make([]string, kill+1)
	type seqDigest struct {
		seq    uint64
		digest string
	}
	var followerLive []seqDigest
	for i := bootSeq; i < kill; i++ {
		if _, err := primary.ApplyEvent(script[i]); err != nil {
			return fmt.Errorf("primary apply %d: %w", i, err)
		}
		primaryDigest[i+1] = primary.GridDigest()
		for s := hr.Intn(3); s > 0; s-- {
			if _, err := repl.Step(ctx); err != nil {
				if errors.Is(err, ErrDiverged) {
					return err
				}
				res.StepErrors++ // chaos casualties are expected; divergence is not
			}
			followerLive = append(followerLive, seqDigest{follower.AppliedSeq(), follower.GridDigest()})
		}
	}

	// The primary dies mid-stream.
	wire.killed.Store(true)
	if _, err := repl.Step(ctx); err == nil {
		return errors.New("pull from a dead primary succeeded")
	} else {
		res.StepErrors++
	}

	// Promote whatever the follower managed to replicate. F is the acked
	// prefix the new primary owns; events F..kill died with the old one —
	// async replication loses tail, never integrity.
	f := follower.AppliedSeq()
	newTerm, err := repl.Promote()
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	if newTerm != 2 {
		return fmt.Errorf("promoted to term %d, want 2", newTerm)
	}
	if follower.Role() != "primary" {
		return fmt.Errorf("promoted node reports role %q", follower.Role())
	}
	res.Promotions++
	if snapCase {
		if repl.Stats().Snapshots == 0 {
			return errors.New("snapshot case never bootstrapped via snapshot")
		}
		res.SnapshotBoots++
	}
	if uint64(bootSeq) > f {
		return fmt.Errorf("follower applied %d, below its own bootstrap point %d", f, bootSeq)
	}
	// The follower's trajectory starts at its own bootstrap point, which
	// can sit past the primary's (the bootstrap snapshot is whatever the
	// primary had applied when the gap was detected). The follower
	// persists the snapshot it bootstrapped from beside its WAL.
	fFrom := uint64(bootSeq) + 1
	if g, err := LoadSnapshotFile(filepath.Join(caseDir, "follower.log.snap")); err == nil {
		fFrom = g.Applied() + 1
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("follower bootstrap snapshot: %w", err)
	}

	// Digest trajectories, bit for bit against the reference: the
	// primary at every seq it applied, the follower at every live batch
	// end, and — through its WAL replayed onto the reference prefix it
	// started from — the follower at every seq it applied.
	for seq := bootSeq + 1; seq <= kill; seq++ {
		if primaryDigest[seq] != refDigest[seq] {
			return fmt.Errorf("primary diverged at seq %d: %s != reference %s", seq, primaryDigest[seq], refDigest[seq])
		}
	}
	for _, l := range followerLive {
		if l.digest != refDigest[l.seq] {
			return fmt.Errorf("follower diverged at live seq %d: %s != reference %s", l.seq, l.digest, refDigest[l.seq])
		}
	}

	// WAL bytes: the replica's log must be a byte-for-byte prefix of the
	// dead primary's — same events, same timestamps, same checksums.
	if err := primary.FlushWAL(); err != nil {
		return err
	}
	if err := follower.FlushWAL(); err != nil {
		return err
	}
	pWAL, err := os.ReadFile(filepath.Join(caseDir, "primary.log"))
	if err != nil {
		return err
	}
	fWAL, err := os.ReadFile(filepath.Join(caseDir, "follower.log"))
	if err != nil {
		return err
	}
	if err := checkWALReplay(cfg.Grid, script, refDigest, fWAL, fFrom, f); err != nil {
		return fmt.Errorf("follower WAL replay: %w", err)
	}
	if snapCase {
		// A bootstrapped follower's log starts mid-stream: its bytes must
		// appear contiguously inside the primary's log.
		if len(fWAL) > 0 && !bytes.Contains(pWAL, fWAL) {
			return fmt.Errorf("bootstrapped follower WAL (%d bytes) not a contiguous run of the primary's (%d bytes)",
				len(fWAL), len(pWAL))
		}
	} else if !bytes.HasPrefix(pWAL, fWAL) {
		return fmt.Errorf("follower WAL (%d bytes) is not a prefix of the primary's (%d bytes)", len(fWAL), len(pWAL))
	}

	// Split-brain fencing, both directions. The old primary wakes up:
	// the first replication request carrying the new term fences it, and
	// its own write path goes read-only.
	wire.killed.Store(false)
	stale, err := NewDaemon(ServerConfig{Grid: cfg.Grid, LogPath: filepath.Join(caseDir, "stale-probe.log")})
	if err != nil {
		return err
	}
	defer stale.Stop()
	staleRepl, err := NewReplicator(stale, ReplicatorConfig{
		ID:   fmt.Sprintf("case-%d-probe", c),
		Dial: func() (transport.Client, error) { return transport.NewLocal(replSrv), nil },
	})
	if err != nil {
		return err
	}
	defer staleRepl.Stop()
	if err := stale.adoptTerm(newTerm); err != nil {
		return err
	}
	if _, err := staleRepl.Step(ctx); err == nil {
		return errors.New("old primary shipped events to a newer-term follower")
	}
	if !primary.Fenced() {
		return errors.New("old primary not fenced after seeing the new term")
	}
	res.Fenced++
	if _, err := primary.ApplyEvent(script[kill]); err == nil {
		return errors.New("fenced primary accepted a write (split brain)")
	}

	// And the promoted node refuses a stale-term pull.
	promotedSrv, err := NewReplServer(follower, ReplConfig{})
	if err != nil {
		return err
	}
	defer promotedSrv.Close()
	staleBatch, err := promotedSrv.pull(&ReplPull{ID: "stale", Term: 1, After: 0})
	if err != nil {
		return err
	}
	if staleBatch.Reject != RejectStaleTerm {
		return fmt.Errorf("stale-term pull got reject %q, want %q", staleBatch.Reject, RejectStaleTerm)
	}
	res.StaleTerm++

	// The promoted primary resumes the script from its replicated
	// position and must land on the reference trajectory exactly.
	for i := int(f); i < cfg.Events; i++ {
		if _, err := follower.ApplyEvent(script[i]); err != nil {
			return fmt.Errorf("promoted apply %d: %w", i, err)
		}
		if dig := follower.GridDigest(); dig != refDigest[i+1] {
			return fmt.Errorf("promoted node diverged at seq %d after failover", i+1)
		}
	}
	res.FinalDigest = follower.GridDigest()
	if res.FinalDigest != refDigest[cfg.Events] {
		return errors.New("final digest differs from reference")
	}

	// The bumped term survives on disk: a restarted promoted node must
	// not fall back to a fenced term.
	t, err := loadTerm(filepath.Join(caseDir, "follower.log.term"))
	if err != nil {
		return err
	}
	if t != newTerm {
		return fmt.Errorf("persisted term %d, want %d", t, newTerm)
	}
	logf("failovertest: case %d ok: killed at %d, promoted at %d (term %d)", c, kill, f, newTerm)
	return nil
}

// checkWALReplay replays a node's WAL bytes, which must hold exactly
// the events from through to, onto a fresh grid carrying the script's
// first from-1 events, and compares the digest after each with the
// reference trajectory.
func checkWALReplay(gcfg Config, script []eventlog.Event, refDigest []string, wal []byte, from, to uint64) error {
	events, err := eventlog.Read(bytes.NewReader(wal))
	if err != nil {
		return err
	}
	if uint64(len(events)) != to+1-from {
		return fmt.Errorf("holds %d events, want seqs %d..%d", len(events), from, to)
	}
	g, err := NewGrid(gcfg)
	if err != nil {
		return err
	}
	for i, e := range script[:from-1] {
		e.Seq = uint64(i + 1)
		if err := g.Apply(e); err != nil {
			return err
		}
	}
	for i, e := range events {
		seq := from + uint64(i)
		if e.Seq != seq {
			return fmt.Errorf("lost seq %d (next event is %d)", seq, e.Seq)
		}
		if err := g.Apply(e); err != nil {
			return fmt.Errorf("apply %d: %w", seq, err)
		}
		if dig := g.Digest(); dig != refDigest[seq] {
			return fmt.Errorf("diverged at seq %d: %s != reference %s", seq, dig, refDigest[seq])
		}
	}
	return nil
}

// TestFailoverTorture runs the seeded kill-and-promote torture at test
// scale: every case must survive chaos on the replication stream, fence
// the stale primary, and land the promoted node on the reference digest
// trajectory. The gridd-grid case is the CI budget (4 cases of 160
// events, 6 faults each, seed 1) on the grid gridd serves with its flag
// defaults.
func TestFailoverTorture(t *testing.T) {
	for _, tc := range []struct {
		name   string
		grid   Config
		faults int
	}{
		{"default-grid", Config{}, 8},
		{"gridd-grid", griddConfig(), 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := failoverTest(failoverTestConfig{
				Grid:   tc.grid,
				Seed:   1,
				Cases:  4,
				Events: 160,
				Faults: tc.faults,
				Dir:    t.TempDir(),
				Logf:   t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Promotions != 4 {
				t.Fatalf("promotions = %d, want 4", res.Promotions)
			}
			if res.Fenced != 4 || res.StaleTerm != 4 {
				t.Fatalf("fenced = %d, stale-term = %d, want 4 each", res.Fenced, res.StaleTerm)
			}
			if res.SnapshotBoots == 0 {
				t.Fatal("no case exercised snapshot bootstrap")
			}
			total := 0
			for _, n := range res.Faults {
				total += n
			}
			if total == 0 {
				t.Fatal("chaos injected no faults")
			}
			if res.FinalDigest == "" {
				t.Fatal("no final digest recorded")
			}
		})
	}
}

// TestFailoverTortureDeterministic: the torture is a pure function of
// its seed — same seed, same faults, same digests, same counters.
func TestFailoverTortureDeterministic(t *testing.T) {
	run := func() *failoverTestResult {
		res, err := failoverTest(failoverTestConfig{Seed: 7, Cases: 2, Events: 120, Faults: 6, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
}
