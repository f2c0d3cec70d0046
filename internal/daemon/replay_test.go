package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gridcma/internal/eventlog"
)

// TestSnapshotRestoreRoundTrip pins the snapshot as a faithful
// externalisation: restore of a mid-life snapshot verifies its digest and
// reproduces the externally visible state.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 19, 250)

	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest() != g.Digest() {
		t.Fatal("restored digest differs from live digest")
	}
	if r.Applied() != g.Applied() {
		t.Fatalf("restored applied %d, live %d", r.Applied(), g.Applied())
	}
	gp, gq, gm := g.Live()
	rp, rq, rm := r.Live()
	if gp != rp || gq != rq || gm != rm {
		t.Fatalf("live counts differ: (%d,%d,%d) vs (%d,%d,%d)", gp, gq, gm, rp, rq, rm)
	}
}

// TestSnapshotRejectsTamper pins the self-verification: a snapshot whose
// payload was altered after the digest was taken fails to restore.
func TestSnapshotRejectsTamper(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 23, 120)
	s := g.Snapshot()
	if len(s.Jobs) == 0 {
		t.Skip("driver left no jobs to tamper with")
	}
	s.Jobs[0].Base++
	if _, err := Restore(s); err == nil {
		t.Fatal("restore accepted a tampered snapshot")
	}
}

// TestSnapshotFileRoundTrip pins the atomic file path: write, load,
// identical digest, and no temp-file litter left behind.
func TestSnapshotFileRoundTrip(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 31, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.snap")
	if err := g.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest() != g.Digest() {
		t.Fatal("loaded digest differs from live digest")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "grid.snap" {
		t.Fatalf("snapshot dir not clean after write: %v", ents)
	}
}

// TestSnapshotFileMissing pins the cold-start contract: a missing
// snapshot file is os.ErrNotExist, not a decode error.
func TestSnapshotFileMissing(t *testing.T) {
	_, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "nope.snap"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v, want os.ErrNotExist", err)
	}
}

// TestSnapshotTruncatedMidJSON pins that a snapshot torn mid-document —
// what a crash during a non-atomic write would leave — fails to restore
// cleanly at every truncation point rather than loading a half-state.
// (SaveSnapshot's rename makes this unreachable in practice; the test
// guards the decode path against externally damaged files.)
func TestSnapshotTruncatedMidJSON(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 37, 150)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, frac := range []int{1, 4, 2, 3} {
		cut := len(whole) * frac / 5
		if _, err := ReadSnapshot(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("restore accepted a snapshot truncated at byte %d of %d", cut, len(whole))
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Fatal("restore accepted an empty snapshot document")
	}
}

// TestSnapshotRejectsRepeatedSlot: an entry list that names one job slot
// twice restores that slot from the last entry, so the digest still
// matches, but the first entry's job id would stay indexed. Restore must
// refuse it.
func TestSnapshotRejectsRepeatedSlot(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 23, 120)
	s := g.Snapshot()
	if len(s.Jobs) == 0 {
		t.Skip("driver left no jobs to repeat")
	}
	ghost := s.Jobs[0]
	ghost.ID += 1000
	s.Jobs = append([]SnapJob{ghost}, s.Jobs...)
	if _, err := Restore(s); err == nil {
		t.Fatal("restore accepted a snapshot that names a job slot twice")
	}
}

// Snapshot documents that announce more than they carry: a job capacity
// of 10⁸ (past etc.New's entry cap) or 2·10⁷ (a 10 GB matrix) over one
// park key, and a machine capacity of 10⁸.
const (
	snapHugeJobCap  = `{"version":2,"config":{"seed":1,"mach_cap":64,"job_cap":1,"pair_inconsistency":1.5,"ls_method":"LMCTS","lambda":0.75},"job_cap":100000000,"park_keys":[1],"digest":""}`
	snapLargeJobCap = `{"version":2,"config":{"seed":1,"mach_cap":64,"job_cap":1,"pair_inconsistency":1.5,"ls_method":"LMCTS","lambda":0.75},"job_cap":20000000,"park_keys":[1],"digest":""}`
	snapHugeMachCap = `{"version":2,"config":{"seed":1,"mach_cap":100000000,"job_cap":1,"pair_inconsistency":1.5,"ls_method":"LMCTS","lambda":0.75},"job_cap":1,"park_keys":[1],"digest":""}`
)

// TestSnapshotRejectsUnbackedCapacity: each document above returns an
// error, without a panic and without allocating the grid it announces.
func TestSnapshotRejectsUnbackedCapacity(t *testing.T) {
	for _, doc := range []string{snapHugeJobCap, snapLargeJobCap, snapHugeMachCap} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(strings.NewReader(doc))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("restore accepted %s", doc)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("restore allocated %d bytes for %s", grew, doc)
		}
	}
}

// FuzzReadSnapshot drives the snapshot reader with arbitrary documents:
// it never panics, an accepted grid keeps its invariants, and the
// snapshot of an accepted grid reads back to the same digest. The seeds
// are snapshots of a small scripted grid at several points of its life
// and the unbacked documents above.
func FuzzReadSnapshot(f *testing.F) {
	cfg := fuzzGridConfig()
	for _, n := range []int{0, 20, 80} {
		g, err := NewGrid(cfg)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range Script(uint64(n)+1, cfg.MachCap, n) {
			if err := g.Apply(e); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, doc := range []string{snapHugeJobCap, snapLargeJobCap, snapHugeMachCap} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if len(doc) > 8<<10 {
			return // every park key a document carries may cost a matrix row of up to MaxMachCap+1 entries
		}
		g, err := ReadSnapshot(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("accepted grid breaks an invariant: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("snapshot of an accepted grid does not restore: %v", err)
		}
		if back.Digest() != g.Digest() {
			t.Fatalf("re-snapshotted grid digest %s, accepted grid %s", back.Digest(), g.Digest())
		}
	})
}

// TestCheckInvariantsOnDrivenGrid runs the structural health probe the
// daemon uses after a handler panic across a long driven history, and
// pins that it detects a planted inconsistency.
func TestCheckInvariantsOnDrivenGrid(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("fresh grid: %v", err)
	}
	d := newDriver(41, testConfig().MachCap)
	for i := 0; i < 300; i++ {
		e := d.next()
		if err := g.Apply(e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e.Type == eventlog.Admit {
			d.used = len(d.alive)
		}
		if i%50 == 0 {
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("after event %d: %v", i, err)
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("final state: %v", err)
	}
	// Plant a corruption: unindex an occupied slot.
	for id := range g.byID {
		delete(g.byID, id)
		break
	}
	if err := g.CheckInvariants(); err == nil {
		t.Fatal("invariant check missed a deleted byID entry")
	}
}

// TestReplayDeterminism is the contract the daemon's crash recovery rests
// on: same snapshot + same event-log suffix ⇒ bit-identical schedule
// trajectory. A live grid runs a full stream; a second grid restores the
// mid-stream snapshot and applies only the suffix. Their digests must
// agree after every suffix event, and their final snapshots must be
// byte-identical JSON.
func TestReplayDeterminism(t *testing.T) {
	cfg := testConfig()
	live, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(303, cfg.MachCap)
	const total, cut = 600, 280
	var snap *Snapshot
	var suffix []eventlog.Event
	var suffixDigests []string
	for i := 0; i < total; i++ {
		e := d.next()
		if err := live.Apply(e); err != nil {
			t.Fatalf("event %d (%+v): %v", i, e, err)
		}
		if e.Type == eventlog.Admit {
			d.used = len(d.alive)
		}
		if i == cut {
			snap = live.Snapshot()
		} else if i > cut {
			suffix = append(suffix, e)
			suffixDigests = append(suffixDigests, live.Digest())
		}
	}

	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range suffix {
		if err := restored.Apply(e); err != nil {
			t.Fatalf("suffix event %d (%+v): %v", i, e, err)
		}
		if d := restored.Digest(); d != suffixDigests[i] {
			t.Fatalf("trajectory diverged at suffix event %d (%+v):\nlive     %s\nrestored %s",
				i, e, suffixDigests[i], d)
		}
	}

	liveSnap, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	restoredSnap, err := json.Marshal(restored.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSnap, restoredSnap) {
		t.Fatalf("final snapshots differ:\nlive     %s\nrestored %s", liveSnap, restoredSnap)
	}
}

// TestReplayDeterminismThroughLog runs the same contract through the
// eventlog wire format: the suffix is serialised and re-read before
// replay, so JSON round-tripping is part of the proven path.
func TestReplayDeterminismThroughLog(t *testing.T) {
	cfg := testConfig()
	live, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := newDriver(909, cfg.MachCap)
	const total, cut = 400, 150
	var snap *Snapshot
	var logBuf bytes.Buffer
	var w *eventlog.Writer
	for i := 0; i < total; i++ {
		e := d.next()
		if w != nil {
			// Persist exactly what will be applied, stamped with the live
			// grid's next sequence number — the daemon's WAL discipline.
			stamped, err := w.Append(e)
			if err != nil {
				t.Fatal(err)
			}
			e = stamped
		}
		if err := live.Apply(e); err != nil {
			t.Fatalf("event %d (%+v): %v", i, e, err)
		}
		if e.Type == eventlog.Admit {
			d.used = len(d.alive)
		}
		if i == cut {
			snap = live.Snapshot()
			w = eventlog.NewWriterAt(&logBuf, snap.Applied)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	events, err := eventlog.Read(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := restored.Apply(e); err != nil {
			t.Fatalf("replaying logged event %+v: %v", e, err)
		}
	}
	if live.Digest() != restored.Digest() {
		t.Fatal("snapshot + serialised log did not reproduce the live digest")
	}
}
