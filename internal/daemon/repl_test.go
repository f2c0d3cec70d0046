package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/transport"
)

// replRig is a primary + follower pair wired through the in-process
// transport: the unit-test bench for the replication protocol.
type replRig struct {
	primary  *Daemon
	follower *Daemon
	srv      *ReplServer
	repl     *Replicator
	pLog     string
	fLog     string
}

func newReplRig(t *testing.T, rcfg ReplicatorConfig) *replRig {
	t.Helper()
	dir := t.TempDir()
	gcfg := DefaultConfig()
	gcfg.Seed = 42
	rig := &replRig{
		pLog: filepath.Join(dir, "primary.log"),
		fLog: filepath.Join(dir, "follower.log"),
	}
	var err error
	rig.primary, err = NewDaemon(ServerConfig{Grid: gcfg, LogPath: rig.pLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.primary.Stop() })
	rig.srv, err = NewReplServer(rig.primary, ReplConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.srv.Close)
	rig.follower, err = NewDaemon(ServerConfig{Grid: gcfg, LogPath: rig.fLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.follower.Stop() })
	if rcfg.Dial == nil {
		rcfg.Dial = func() (transport.Client, error) { return transport.NewLocal(rig.srv), nil }
	}
	rig.repl, err = NewReplicator(rig.follower, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.repl.Stop)
	return rig
}

// drive applies scripted events to the rig's primary.
func (rig *replRig) drive(t *testing.T, events []eventlog.Event) {
	t.Helper()
	for i, e := range events {
		if _, err := rig.primary.ApplyEvent(e); err != nil {
			t.Fatalf("primary apply %d: %v", i, err)
		}
	}
}

// script generates n events acceptable to the rig's (fresh) primary.
func (rig *replRig) script(seed uint64, n int) []eventlog.Event {
	return Script(seed, rig.primary.cfg.Grid.MachCap, n)
}

// shippedEvents decodes a pull's records with the decoder the follower
// runs, continuing from sequence number after.
func shippedEvents(t *testing.T, batch *ReplBatch, after uint64) []eventlog.Event {
	t.Helper()
	var events []eventlog.Event
	for _, line := range batch.Records {
		e, err := eventlog.ParseRecord(line, after)
		if err != nil {
			t.Fatalf("shipped record %q: %v", line, err)
		}
		events = append(events, e)
		after = e.Seq
	}
	return events
}

// catchUp steps the replicator until the follower reports zero lag.
func (rig *replRig) catchUp(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		n, err := rig.repl.Step(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if n == 0 && rig.follower.ReplicaLag() == 0 {
			return
		}
	}
	t.Fatal("follower never caught up")
}

// TestReplicationCatchUp: a follower pulling a scripted WAL converges
// to the primary's applied position, digest, and — byte for byte — its
// WAL file.
func TestReplicationCatchUp(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1", Batch: 7})
	script := rig.script(1, 250)
	rig.drive(t, script[:200])
	rig.catchUp(t)

	if pa, fa := rig.primary.AppliedSeq(), rig.follower.AppliedSeq(); pa != fa {
		t.Fatalf("applied: primary %d, follower %d", pa, fa)
	}
	if pd, fd := rig.primary.GridDigest(), rig.follower.GridDigest(); pd != fd {
		t.Fatalf("digest: primary %s, follower %s", pd, fd)
	}
	if err := rig.primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := rig.follower.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	p, err := os.ReadFile(rig.pLog)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.ReadFile(rig.fLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, f) {
		t.Fatalf("WALs differ: primary %d bytes, follower %d bytes", len(p), len(f))
	}

	// More primary traffic streams incrementally (no cursor re-scan).
	rig.drive(t, script[200:])
	rig.catchUp(t)
	if pd, fd := rig.primary.GridDigest(), rig.follower.GridDigest(); pd != fd {
		t.Fatalf("digest after second wave: primary %s, follower %s", pd, fd)
	}
}

// TestReplicationSnapshotBootstrap: a primary whose WAL starts past a
// snapshot cannot log-ship a blank follower; the follower must detect
// the gap, bootstrap from the primary's snapshot (persisting it), and
// then stream the tail. Stopped, it restarts from the persisted snapshot
// and its WAL with no snapshot path named.
func TestReplicationSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	gcfg := DefaultConfig()
	gcfg.Seed = 7
	script := Script(7, gcfg.MachCap, 120)

	g, err := NewGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		e := script[i]
		e.Seq = uint64(i + 1)
		if err := g.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	pg, err := Restore(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	primary, err := NewDaemonWith(pg, ServerConfig{Grid: gcfg, LogPath: filepath.Join(dir, "primary.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Stop()
	srv, err := NewReplServer(primary, ReplConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	follower, err := NewDaemon(ServerConfig{Grid: gcfg, LogPath: filepath.Join(dir, "follower.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	repl, err := NewReplicator(follower, ReplicatorConfig{
		ID:   "boot",
		Dial: func() (transport.Client, error) { return transport.NewLocal(srv), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Stop()

	// The first pull cannot be served from the truncated log (the
	// primary's WAL starts at 61): the follower must bootstrap to 60.
	ctx := context.Background()
	if _, err := repl.Step(ctx); err != nil {
		t.Fatalf("bootstrap step: %v", err)
	}
	if got := follower.AppliedSeq(); got != 60 {
		t.Fatalf("follower applied %d after bootstrap, want 60", got)
	}

	// Then the tail streams as ordinary WAL shipping.
	for i := 60; i < 120; i++ {
		if _, err := primary.ApplyEvent(script[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && follower.AppliedSeq() < primary.AppliedSeq(); i++ {
		if _, err := repl.Step(ctx); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if fa, pa := follower.AppliedSeq(), primary.AppliedSeq(); fa != pa {
		t.Fatalf("follower applied %d, primary %d", fa, pa)
	}
	if fd, pd := follower.GridDigest(), primary.GridDigest(); fd != pd {
		t.Fatalf("digest mismatch after bootstrap: %s vs %s", fd, pd)
	}
	if repl.Stats().Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", repl.Stats().Snapshots)
	}
	if _, err := os.Stat(filepath.Join(dir, "follower.log.snap")); err != nil {
		t.Fatalf("bootstrap snapshot not persisted: %v", err)
	}
	// The follower's WAL holds exactly the post-snapshot tail, byte-equal
	// to the primary's.
	primary.FlushWAL()
	follower.FlushWAL()
	p, _ := os.ReadFile(filepath.Join(dir, "primary.log"))
	f, _ := os.ReadFile(filepath.Join(dir, "follower.log"))
	if !bytes.Equal(p, f) {
		t.Fatalf("post-bootstrap WALs differ: %d vs %d bytes", len(p), len(f))
	}

	// A restart with no snapshot named restores the bootstrap snapshot
	// beside the WAL and replays the tail onto it.
	want := follower.GridDigest()
	repl.Stop()
	if err := follower.Stop(); err != nil {
		t.Fatal(err)
	}
	rg, info, err := RecoverGrid(gcfg, "", filepath.Join(dir, "follower.log"))
	if err != nil {
		t.Fatalf("restarting the bootstrapped follower: %v", err)
	}
	if info.FromSnapshot != 60 || rg.Digest() != want {
		t.Fatalf("restart from snapshot seq %d reached digest %s, want seq 60 and %s", info.FromSnapshot, rg.Digest(), want)
	}
}

// TestReplicationDivergenceDetected: a shipped digest that contradicts
// the follower's own state at the same applied position is a broken
// determinism contract — the replicator must stop permanently and latch
// the daemon degraded, not shrug and keep pulling.
func TestReplicationDivergenceDetected(t *testing.T) {
	gcfg := DefaultConfig()
	follower, err := NewDaemon(ServerConfig{Grid: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	lying := transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		b, _ := json.Marshal(&ReplBatch{
			Term:      1,
			Applied:   0,
			Digest:    "sha256:0000000000000000000000000000000000000000000000000000000000000000",
			DigestSeq: 0, // matches the follower's applied position... with the wrong digest
		})
		return &transport.Response{ID: req.ID, Repl: b}, nil
	})
	repl, err := NewReplicator(follower, ReplicatorConfig{
		ID:   "div",
		Dial: func() (transport.Client, error) { return transport.NewLocal(lying), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Stop()

	_, err = repl.Step(context.Background())
	if err == nil {
		t.Fatal("divergent digest accepted")
	}
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("step error %v, want ErrDiverged", err)
	}
	if !permanent(err) {
		t.Fatalf("divergence error not permanent: %v", err)
	}
	if !follower.degraded.Load() {
		t.Fatal("divergence did not latch the daemon degraded")
	}
}

// TestReplPullDigestStamp pins which pulls carry the primary's digest:
// a pull that reaches the applied seq is stamped with the digest there,
// one cut short by Max is not, and a follower whose grid really diverged
// fails the next stamped Step with ErrDiverged and latches degraded.
func TestReplPullDigestStamp(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1", Batch: 16})
	rig.drive(t, rig.script(17, 40))
	applied := rig.primary.AppliedSeq()

	caughtUp, err := rig.srv.pull(&ReplPull{ID: "probe", Term: 1, After: applied - 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(caughtUp.Records) != 3 || caughtUp.Applied != applied {
		t.Fatalf("pull after %d shipped %d records, applied %d", applied-3, len(caughtUp.Records), caughtUp.Applied)
	}
	if want := rig.primary.GridDigest(); caughtUp.Digest != want || caughtUp.DigestSeq != applied {
		t.Fatalf("caught-up pull stamped %q at %d, want %q at %d", caughtUp.Digest, caughtUp.DigestSeq, want, applied)
	}

	truncated, err := rig.srv.pull(&ReplPull{ID: "probe", Term: 1, After: 0, Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(truncated.Records) != 5 || truncated.Digest != "" || truncated.DigestSeq != 0 {
		t.Fatalf("pull cut short by Max: %d records, digest %q at %d; want 5 and none",
			len(truncated.Records), truncated.Digest, truncated.DigestSeq)
	}

	rig.catchUp(t)
	// White-box divergence: one event the primary never saw.
	rig.follower.mu.Lock()
	err = rig.follower.g.Apply(eventlog.Event{Seq: applied + 1, Type: eventlog.Join,
		Mach: rig.follower.g.NextMachID(), Mult: 2})
	rig.follower.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The primary's own next event is a different one: the next pull
	// ships nothing, reaches the primary's applied seq and is stamped.
	rig.drive(t, []eventlog.Event{{Type: eventlog.Submit, Job: rig.primary.g.NextJobID(), Base: 3}})
	_, err = rig.repl.Step(context.Background())
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("step after divergence: %v, want ErrDiverged", err)
	}
	if !rig.follower.degraded.Load() {
		t.Fatal("divergence did not latch the daemon degraded")
	}
}

// TestReplicationCorruptRecordRefused: a shipped record with one flipped
// byte fails the follower's decode. Step fails permanently, the daemon
// latches degraded, and neither its grid nor its WAL ever holds any
// record of that batch.
func TestReplicationCorruptRecordRefused(t *testing.T) {
	var rig *replRig
	var corrupt atomic.Bool
	flipping := transport.HandlerFunc(func(ctx context.Context, req *transport.Request) (*transport.Response, error) {
		resp, err := rig.srv.Handle(ctx, req)
		if err == nil && corrupt.Load() && req.Kind == transport.KindReplPull {
			// Flip the last digit of the batch's final crc: the record
			// stays well-formed and canonical, so only the checksum can
			// object, and the records before it in the batch are sound.
			resp.Repl = bytes.Clone(resp.Repl)
			resp.Repl[len(resp.Repl)-2] ^= 1
		}
		return resp, err
	})
	rig = newReplRig(t, ReplicatorConfig{
		ID:   "f1",
		Dial: func() (transport.Client, error) { return transport.NewLocal(flipping), nil },
	})
	script := rig.script(21, 60)
	rig.drive(t, script[:30])
	rig.catchUp(t)
	before := rig.follower.AppliedSeq()
	beforeDigest := rig.follower.GridDigest()

	rig.drive(t, script[30:])
	corrupt.Store(true)
	n, err := rig.repl.Step(context.Background())
	if err == nil {
		t.Fatalf("corrupt batch applied (%d events)", n)
	}
	if !permanent(err) {
		t.Fatalf("corrupt batch error not permanent: %v", err)
	}
	if !rig.follower.degraded.Load() {
		t.Fatal("corrupt batch did not latch the follower degraded")
	}
	if got := rig.follower.AppliedSeq(); got != before {
		t.Fatalf("follower applied %d after the corrupt batch, want %d", got, before)
	}
	if got := rig.follower.GridDigest(); got != beforeDigest {
		t.Fatal("follower grid changed by the corrupt batch")
	}
	if err := rig.follower.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(rig.fLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := eventlog.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(events); n != int(before) || events[n-1].Seq != before {
		t.Fatalf("follower WAL holds %d events after the corrupt batch, want %d", n, before)
	}
}

// TestReplicationFencesStalePrimary: the first replication request
// carrying a newer term demotes the old primary on the spot — shipping
// rejected, local writes refused, HTTP mutations 503, /readyz "fenced".
func TestReplicationFencesStalePrimary(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1"})
	rig.drive(t, rig.script(3, 40))
	rig.catchUp(t)

	batch, err := rig.srv.pull(&ReplPull{ID: "new-primary-probe", Term: 9, After: 0})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Reject != RejectFenced {
		t.Fatalf("pull with newer term: reject %q, want %q", batch.Reject, RejectFenced)
	}
	if !rig.primary.Fenced() {
		t.Fatal("primary not fenced after observing a newer term")
	}
	// Fenced primaries must not claim the newer term as their own.
	if got := rig.primary.Term(); got != 1 {
		t.Fatalf("fenced primary term %d, want 1 (terms belong to their winners)", got)
	}
	if _, err := rig.primary.ApplyEvent(eventlog.Event{Type: eventlog.Admit}); err == nil {
		t.Fatal("fenced primary accepted a local write")
	}
	// Subsequent pulls, even with a matching term, stay rejected.
	batch, err = rig.srv.pull(&ReplPull{ID: "f1", Term: 1, After: rig.follower.AppliedSeq()})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Reject != RejectFenced {
		t.Fatalf("post-fence pull: reject %q, want %q", batch.Reject, RejectFenced)
	}

	srv := httptest.NewServer(rig.primary.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/admit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST to fenced primary: %d, want 503", resp.StatusCode)
	}
	if code, body := getStatus(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || body["reason"] != "fenced" {
		t.Fatalf("fenced readyz: %d %v", code, body)
	}
	// Reads stay up for diagnosis.
	if code, _ := getStatus(t, srv.URL+"/stats"); code != http.StatusOK {
		t.Fatalf("GET /stats on fenced primary: %d", code)
	}
}

// TestReplicationStaleFollowerAdoptsTerm: a follower pulling with an
// old term is rejected once, adopts the primary's term from the
// response, and succeeds on the retry.
func TestReplicationStaleFollowerAdoptsTerm(t *testing.T) {
	dir := t.TempDir()
	gcfg := DefaultConfig()
	if err := saveTerm(filepath.Join(dir, "primary.log.term"), 5); err != nil {
		t.Fatal(err)
	}
	primary, err := NewDaemon(ServerConfig{Grid: gcfg, LogPath: filepath.Join(dir, "primary.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Stop()
	if primary.Term() != 5 {
		t.Fatalf("primary term %d, want 5 from disk", primary.Term())
	}
	srv, err := NewReplServer(primary, ReplConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, e := range Script(9, gcfg.MachCap, 30) {
		if _, err := primary.ApplyEvent(e); err != nil {
			t.Fatal(err)
		}
	}

	follower, err := NewDaemon(ServerConfig{Grid: gcfg, LogPath: filepath.Join(dir, "follower.log")})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	repl, err := NewReplicator(follower, ReplicatorConfig{
		ID:   "stale",
		Dial: func() (transport.Client, error) { return transport.NewLocal(srv), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Stop()

	ctx := context.Background()
	_, err = repl.Step(ctx)
	if err == nil || !strings.Contains(err.Error(), RejectStaleTerm) {
		t.Fatalf("first stale pull: %v, want %s rejection", err, RejectStaleTerm)
	}
	if follower.Term() != 5 {
		t.Fatalf("follower term %d after rejection, want adopted 5", follower.Term())
	}
	if n, err := repl.Step(ctx); err != nil || n == 0 {
		t.Fatalf("post-adoption pull: n=%d err=%v", n, err)
	}
}

// TestPromoteOverHTTP: POST /promote flips a follower to primary with a
// bumped, persisted term; writes start flowing and the old primary's
// shipments are rejected as stale.
func TestPromoteOverHTTP(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1"})
	rig.drive(t, rig.script(4, 60))
	rig.catchUp(t)

	fsrv := httptest.NewServer(rig.follower.Handler())
	defer fsrv.Close()

	// A follower refuses direct writes...
	resp, err := http.Post(fsrv.URL+"/admit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /admit on follower: %d, want 503", resp.StatusCode)
	}

	// ...until promoted.
	resp, err = http.Post(fsrv.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Role != "primary" || pr.Term != 2 {
		t.Fatalf("promote: %d %+v, want 200 primary term 2", resp.StatusCode, pr)
	}
	if got, _ := loadTerm(rig.fLog + ".term"); got != 2 {
		t.Fatalf("persisted term %d, want 2", got)
	}

	resp, err = http.Post(fsrv.URL+"/admit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admit after promotion: %d, want 200", resp.StatusCode)
	}

	// Promoting a node that was never a follower is a 409.
	psrv := httptest.NewServer(rig.primary.Handler())
	defer psrv.Close()
	resp, err = http.Post(psrv.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on a primary: %d, want 409", resp.StatusCode)
	}
}

// TestReadyzFollowerReasons: a follower is "catching-up" before its
// first convergence and "replica-lag" when it falls behind the lag
// budget afterwards; in between it is ready and names its role.
func TestReadyzFollowerReasons(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1", Batch: 1, MaxLag: 2})
	srv := httptest.NewServer(rig.follower.Handler())
	defer srv.Close()

	script := rig.script(5, 50)
	rig.drive(t, script[:30])
	if code, body := getStatus(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || body["reason"] != "catching-up" {
		t.Fatalf("fresh follower readyz: %d %v, want 503 catching-up", code, body)
	}
	rig.catchUp(t)
	if code, body := getStatus(t, srv.URL+"/readyz"); code != http.StatusOK || body["role"] != "follower" {
		t.Fatalf("caught-up follower readyz: %d %v", code, body)
	}

	// Fall behind: 20 new events, one pulled (Batch 1) → lag 19 > 2.
	rig.drive(t, script[30:])
	if _, err := rig.repl.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body := getStatus(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || body["reason"] != "replica-lag" {
		t.Fatalf("lagging follower readyz: %d %v, want 503 replica-lag", code, body)
	}
	if lag, ok := body["lag"].(float64); !ok || lag <= 2 {
		t.Fatalf("replica-lag body lag = %v, want > 2", body["lag"])
	}
	rig.catchUp(t)
	if code, _ := getStatus(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after re-catching up: %d", code)
	}
}

// TestReplicatorRunLoopConverges: the background pull loop converges
// against a concurrently-written primary and shuts down cleanly
// (exercised under -race by CI).
func TestReplicatorRunLoopConverges(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "run", Poll: time.Millisecond, Batch: 16})
	rig.repl.Run()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range Script(11, rig.primary.cfg.Grid.MachCap, 300) {
			if _, err := rig.primary.ApplyEvent(e); err != nil {
				t.Errorf("primary apply: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rig.follower.AppliedSeq() == rig.primary.AppliedSeq() && rig.follower.ReplicaLag() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rig.repl.Stop()
	if fa, pa := rig.follower.AppliedSeq(), rig.primary.AppliedSeq(); fa != pa {
		t.Fatalf("run loop never converged: follower %d, primary %d", fa, pa)
	}
	if fd, pd := rig.follower.GridDigest(), rig.primary.GridDigest(); fd != pd {
		t.Fatalf("digest mismatch after run loop: %s vs %s", fd, pd)
	}
}

// TestReplicatorRunBacksOffAndStopsPromptly points the pull loop at a
// dead primary, whose every dial fails. The gaps between dials must grow
// along one retry schedule (each wait is at least its base: 50ms, then
// 100ms, 200ms and 400ms), and Stop must return during the next wait (at
// least 800ms) instead of waiting it out.
func TestReplicatorRunBacksOffAndStopsPromptly(t *testing.T) {
	follower, err := NewDaemon(ServerConfig{Grid: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	dials := make(chan time.Time, 16)
	repl, err := NewReplicator(follower, ReplicatorConfig{
		ID: "dead-primary",
		Dial: func() (transport.Client, error) {
			dials <- time.Now()
			return nil, errors.New("connection refused")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	repl.Run()
	prev := <-dials
	for _, base := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		at := <-dials
		if gap := at.Sub(prev); gap < base {
			t.Fatalf("dial %v after the last one, want a backoff of at least %v", gap, base)
		}
		prev = at
	}
	start := time.Now()
	repl.Stop()
	if took := time.Since(start); took >= 800*time.Millisecond {
		t.Fatalf("Stop took %v: it waited out the backoff", took)
	}
	if n := len(dials); n != 0 {
		t.Fatalf("%d dials after Stop", n)
	}
	if got := repl.Stats().Reconnects; got != 5 {
		t.Fatalf("%d failed dials counted, want 5", got)
	}
}

// TestReplServerBoundsCursors pulls under more follower IDs than the
// primary keeps WAL cursors for. Exactly the documented 32 stay open, the
// least recently read is the one closed, and a follower whose cursor was
// closed pulls on from where it was. The cap is written out rather than
// read from maxReplCursors, so a change to the constant fails here.
func TestReplServerBoundsCursors(t *testing.T) {
	const limit = 32
	rig := newReplRig(t, ReplicatorConfig{ID: "f1"})
	rig.drive(t, rig.script(5, 80))
	pull := func(id string, after uint64) *ReplBatch {
		t.Helper()
		b, err := rig.srv.pull(&ReplPull{ID: id, Term: rig.primary.Term(), After: after, Max: 1})
		if err != nil || b.Reject != "" || b.NeedSnapshot || len(b.Records) != 1 {
			t.Fatalf("pull %q after %d: %+v, %v", id, after, b, err)
		}
		return b
	}
	// openLogs counts this process's descriptors open on the primary's
	// WAL: its own writer plus one per cursor.
	openLogs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		n := 0
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == rig.pLog {
				n++
			}
		}
		return n
	}
	pull("kept", 0)
	kept := rig.srv.cursors["kept"]
	const extra = 5
	for i := 0; i < limit+extra; i++ {
		pull(fmt.Sprintf("f-%d", i), 0)
		pull("kept", uint64(i+1)) // read after every newcomer: never the least recent
		if n := len(rig.srv.cursors); n > limit {
			t.Fatalf("%d cursors cached after %d followers, cap %d", n, i+2, limit)
		}
		if n := openLogs(); n > limit+1 {
			t.Fatalf("%d descriptors open on the WAL after %d followers, want at most %d", n, i+2, limit+1)
		}
	}
	if n := len(rig.srv.cursors); n != limit {
		t.Fatalf("%d cursors cached after %d followers, want the cap %d", n, limit+extra+1, limit)
	}
	if rig.srv.cursors["kept"] != kept {
		t.Fatal("the most recently read cursor was closed")
	}
	for i := 0; i < extra+1; i++ {
		if _, ok := rig.srv.cursors[fmt.Sprintf("f-%d", i)]; ok {
			t.Fatalf("cursor f-%d, among the least recently read, still open", i)
		}
	}
	if e := shippedEvents(t, pull("f-0", 1), 1); e[0].Seq != 2 {
		t.Fatalf("evicted follower resumed at seq %d, want 2", e[0].Seq)
	}
}

// TestReplicationOverTCP: the same protocol across a real socket — the
// wire format, not just the in-process shortcut.
func TestReplicationOverTCP(t *testing.T) {
	rig := newReplRigTCP(t)
	rig.drive(t, rig.script(12, 80))
	rig.catchUp(t)
	if fd, pd := rig.follower.GridDigest(), rig.primary.GridDigest(); fd != pd {
		t.Fatalf("digest mismatch over TCP: %s vs %s", fd, pd)
	}
}

func newReplRigTCP(t *testing.T) *replRig {
	t.Helper()
	dir := t.TempDir()
	gcfg := DefaultConfig()
	gcfg.Seed = 42
	rig := &replRig{
		pLog: filepath.Join(dir, "primary.log"),
		fLog: filepath.Join(dir, "follower.log"),
	}
	var err error
	rig.primary, err = NewDaemon(ServerConfig{Grid: gcfg, LogPath: rig.pLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.primary.Stop() })
	rig.srv, err = NewReplServer(rig.primary, ReplConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := transport.NewServer(rig.srv)
	go tsrv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tsrv.Shutdown(ctx)
	})
	rig.follower, err = NewDaemon(ServerConfig{Grid: gcfg, LogPath: rig.fLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.follower.Stop() })
	rig.repl, err = NewReplicator(rig.follower, ReplicatorConfig{
		ID:      "tcp",
		Primary: ln.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.repl.Stop)
	return rig
}

// TestReplPullShipsBufferedEvent: a replicated primary buffers its WAL
// between flushes like any other (no flush per event), yet a pull issued
// right after a non-admit event ships it, because pull flushes first.
func TestReplPullShipsBufferedEvent(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1"})
	rig.drive(t, rig.script(14, 40))
	rig.catchUp(t)
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(rig.pLog)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	for _, typ := range []eventlog.Type{eventlog.Submit, eventlog.Join, eventlog.Complete} {
		e := eventlog.Event{Type: typ}
		switch typ {
		case eventlog.Submit:
			e.Job, e.Base = rig.primary.g.NextJobID(), 3
		case eventlog.Join:
			e.Mach, e.Mult = rig.primary.g.NextMachID(), 2
		case eventlog.Complete:
			e.Job = rig.primary.g.NextJobID() - 1
		}
		before := size()
		stamped, err := rig.primary.ApplyEvent(e)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if got := size(); got != before {
			t.Fatalf("%s: WAL grew from %d to %d bytes before any pull: flushed per event", typ, before, got)
		}
		batch, err := rig.srv.pull(&ReplPull{ID: "probe", Term: 1, After: stamped.Seq - 1})
		if err != nil {
			t.Fatal(err)
		}
		events := shippedEvents(t, batch, stamped.Seq-1)
		if len(events) != 1 || events[0].Seq != stamped.Seq || events[0].Type != typ {
			t.Fatalf("%s: pull after event %d shipped %+v", typ, stamped.Seq, events)
		}
	}
}

// TestReplPullConcurrentWithApply: a caught-up follower pulling while
// the primary applies events concurrently is never sent to bootstrap.
// The applied position a pull reports must be read under the lock that
// flushed the WAL; otherwise an event applied in between counts as
// applied while still buffered, and the empty read looks like a gap.
func TestReplPullConcurrentWithApply(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1"})
	events := rig.script(16, 3000)
	done := make(chan error, 1)
	go func() {
		for _, e := range events {
			if _, err := rig.primary.ApplyEvent(e); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var after uint64
	finished := false
	for !finished || after < uint64(len(events)) {
		if !finished {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				finished = true
			default:
			}
		}
		batch, err := rig.srv.pull(&ReplPull{ID: "race", Term: 1, After: after})
		if err != nil {
			t.Fatal(err)
		}
		if batch.NeedSnapshot || batch.Reject != "" {
			t.Fatalf("pull after %d (primary applied %d): need snapshot %v, reject %q",
				after, batch.Applied, batch.NeedSnapshot, batch.Reject)
		}
		for _, e := range shippedEvents(t, batch, after) {
			if e.Seq != after+1 {
				t.Fatalf("pull shipped seq %d after %d", e.Seq, after)
			}
			after = e.Seq
		}
	}
}

// TestReplPullAheadRejected: a puller claiming more applied events than
// the primary has is irreconcilable — reject, don't ship.
func TestReplPullAheadRejected(t *testing.T) {
	rig := newReplRig(t, ReplicatorConfig{ID: "f1"})
	rig.drive(t, rig.script(13, 10))
	batch, err := rig.srv.pull(&ReplPull{ID: "ahead", Term: 1, After: rig.primary.AppliedSeq() + 5})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Reject != RejectAhead {
		t.Fatalf("ahead pull reject %q, want %q", batch.Reject, RejectAhead)
	}
}

// TestReplicationTwoFollowersThenPromote streams one primary to two
// followers over TCP, each with its own pull loop, while the primary
// takes a script; both must converge to the primary's digest and WAL
// bytes. Then the primary dies mid-script and follower 0 is promoted:
// its term moves to 2, it takes the next write, and the dead primary's
// WAL is a byte prefix of its own.
func TestReplicationTwoFollowersThenPromote(t *testing.T) {
	dir := t.TempDir()
	gcfg := DefaultConfig()
	pLog := filepath.Join(dir, "primary.log")
	primary, err := NewDaemon(ServerConfig{Grid: gcfg, LogPath: pLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Stop() })
	rs, err := NewReplServer(primary, ReplConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := transport.NewServer(rs)
	go tsrv.Serve(ln)
	kill := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tsrv.Shutdown(ctx)
	}
	t.Cleanup(kill)

	var fLogs []string
	var followers []*Daemon
	var repls []*Replicator
	for i := 0; i < 2; i++ {
		fLogs = append(fLogs, filepath.Join(dir, fmt.Sprintf("follower-%d.log", i)))
		f, err := NewDaemon(ServerConfig{Grid: gcfg, LogPath: fLogs[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Stop() })
		r, err := NewReplicator(f, ReplicatorConfig{
			Primary: ln.Addr().String(),
			ID:      fmt.Sprintf("follower-%d", i),
			Poll:    time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		r.Run()
		followers, repls = append(followers, f), append(repls, r)
	}

	script := Script(3, gcfg.MachCap, 400)
	half := len(script) / 2
	for i, e := range script[:half] {
		if _, err := primary.ApplyEvent(e); err != nil {
			t.Fatalf("primary apply %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, f := range followers {
		for f.AppliedSeq() != primary.AppliedSeq() || f.ReplicaLag() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %d of %d", f.AppliedSeq(), primary.AppliedSeq())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := primary.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	pWAL, err := os.ReadFile(pLog)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range followers {
		if fd, pd := f.GridDigest(), primary.GridDigest(); fd != pd {
			t.Fatalf("follower %d digest %s, primary %s", i, fd, pd)
		}
		if err := f.FlushWAL(); err != nil {
			t.Fatal(err)
		}
		if fWAL, err := os.ReadFile(fLogs[i]); err != nil || !bytes.Equal(fWAL, pWAL) {
			t.Fatalf("follower %d WAL differs from the primary's (%v)", i, err)
		}
	}

	// Kill the primary: the replication listener drops and the daemon
	// stops. Promote follower 0 and write the next scripted event.
	kill()
	primary.Stop()
	term, err := repls[0].Promote()
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 {
		t.Fatalf("promoted to term %d, want 2", term)
	}
	if _, err := followers[0].ApplyEvent(script[half]); err != nil {
		t.Fatalf("first write on the promoted node: %v", err)
	}
	if err := followers[0].FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fWAL, err := os.ReadFile(fLogs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(fWAL) <= len(pWAL) || !bytes.Equal(fWAL[:len(pWAL)], pWAL) {
		t.Fatalf("dead primary's WAL (%d bytes) is not a strict prefix of the promoted node's (%d bytes)", len(pWAL), len(fWAL))
	}
}
