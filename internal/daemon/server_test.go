package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridcma/internal/eventlog"
)

func newTestDaemon(t *testing.T, cfg ServerConfig) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := d.Stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return d, srv
}

func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestServerSubmitQueryStats(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig(), AdmitPending: 4}
	_, srv := newTestDaemon(t, cfg)

	var joined []eventlog.Event
	postJSON(t, srv.URL+"/event", []map[string]any{
		{"type": "join", "mult": 1},
		{"type": "join", "mult": 2},
	}, &joined)
	if len(joined) != 2 || joined[0].Mach != 1 || joined[1].Mach != 2 {
		t.Fatalf("joins came back %+v", joined)
	}

	var sr SubmitResponse
	postJSON(t, srv.URL+"/submit", SubmitRequest{Bases: []float64{2, 3, 4, 5}}, &sr)
	if len(sr.IDs) != 4 || sr.IDs[0] != 1 {
		t.Fatalf("submit ids %v", sr.IDs)
	}
	if !sr.Admitted {
		t.Fatal("4 pending with AdmitPending=4 did not admit")
	}

	var info JobInfo
	getJSON(t, srv.URL+"/query?job=2", &info)
	if info.State != "placed" || info.Mach == 0 {
		t.Fatalf("job 2 after admission: %+v", info)
	}

	var stats Stats
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Placed != 4 || stats.Counters.Admits != 1 || stats.Machines != 2 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Latency.Count != 4 || stats.Latency.P99Ms < 0 {
		t.Fatalf("latency stats %+v", stats.Latency)
	}
	if stats.Makespan <= 0 || stats.Makespan >= blockETC/2 {
		t.Fatalf("stats makespan %v", stats.Makespan)
	}

	// Invalid events surface as client errors, not daemon state changes.
	before := stats.Applied
	if resp := postJSON(t, srv.URL+"/event", map[string]any{"type": "leave", "mach": 99}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad leave: status %v", resp.Status)
	}
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Applied != before {
		t.Fatal("rejected event advanced the applied sequence")
	}
}

// TestServerRestartReplaysByteIdentical is the restart contract: run a
// daemon with a write-ahead log and durable acknowledgements, snapshot
// mid-stream to disk, keep running, then rebuild the grid from the
// snapshot plus the log suffix and compare full snapshots byte for
// byte — once replaying the log by hand while the daemon runs, once
// through RecoverGrid (the entry point gridd restarts through) after
// the daemon stopped.
func TestServerRestartReplaysByteIdentical(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "gridd.log")
	snapPath := filepath.Join(dir, "snap.json")
	cfg := ServerConfig{Grid: testConfig(), AdmitPending: 3, LogPath: logPath, Fsync: FsyncAlways}
	d, srv := newTestDaemon(t, cfg)

	postJSON(t, srv.URL+"/event", []map[string]any{
		{"type": "join", "mult": 1}, {"type": "join", "mult": 2}, {"type": "join", "mult": 1},
	}, nil)
	postJSON(t, srv.URL+"/submit", SubmitRequest{Bases: []float64{2, 3, 4, 5, 6}}, nil)

	// Mid-stream snapshot (also flushes the log).
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var midSnap bytes.Buffer
	if _, err := midSnap.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := os.WriteFile(snapPath, midSnap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Keep going: complete, fail a machine, more submissions, admissions.
	postJSON(t, srv.URL+"/event", []map[string]any{
		{"type": "complete", "job": 1},
		{"type": "fail", "mach": 2},
	}, nil)
	postJSON(t, srv.URL+"/submit", SubmitRequest{Bases: []float64{7, 8, 9}}, nil)
	postJSON(t, srv.URL+"/admit", struct{}{}, nil)

	var finalLive bytes.Buffer
	resp, err = http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finalLive.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Restore the mid-stream snapshot and replay the log suffix.
	restored, err := ReadSnapshot(bytes.NewReader(midSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := eventlog.Read(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, e := range events {
		if e.Seq <= restored.Applied() {
			continue
		}
		if err := restored.Apply(e); err != nil {
			t.Fatalf("replaying %+v: %v", e, err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("log held no suffix past the snapshot")
	}
	var restoredSnap bytes.Buffer
	if err := restored.WriteSnapshot(&restoredSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalLive.Bytes(), restoredSnap.Bytes()) {
		t.Fatalf("restored snapshot differs from live:\nlive     %s\nrestored %s",
			strings.TrimSpace(finalLive.String()), strings.TrimSpace(restoredSnap.String()))
	}

	// Restart: stop the daemon, recover from the snapshot file plus the
	// log suffix.
	srv.Close()
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	g, info, err := RecoverGrid(cfg.Grid, snapPath, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 || info.TornTail {
		t.Fatalf("recovery replayed %d events (torn tail %v), want > 0 and a clean tail", info.Replayed, info.TornTail)
	}
	restoredSnap.Reset()
	if err := g.WriteSnapshot(&restoredSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalLive.Bytes(), restoredSnap.Bytes()) {
		t.Fatal("snapshot recovered after the restart differs from live")
	}
}

// TestServerWALSurvivesRejectedEvent pins the write-ahead sequencing
// contract: a structurally valid but state-invalid event (a leave of an
// unknown machine) must not consume a log sequence number. The daemon
// keeps accepting events afterwards, the log holds exactly the applied
// events contiguously numbered, and replaying it reproduces the live
// digest.
func TestServerWALSurvivesRejectedEvent(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "gridd.log")
	cfg := ServerConfig{Grid: testConfig(), AdmitPending: 2, LogPath: logPath}
	d, srv := newTestDaemon(t, cfg)

	postJSON(t, srv.URL+"/event", map[string]any{"type": "join", "mult": 1}, nil)
	if resp := postJSON(t, srv.URL+"/event", map[string]any{"type": "leave", "mach": 9}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("leave of unknown machine: status %v", resp.Status)
	}
	// The rejected event consumed no sequence number: later events must
	// still apply (and trip the admission threshold).
	var sr SubmitResponse
	if resp := postJSON(t, srv.URL+"/submit", SubmitRequest{Bases: []float64{2, 3}}, &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit after rejected event: status %v", resp.Status)
	}
	if !sr.Admitted {
		t.Fatal("submit after rejected event did not admit")
	}
	liveDigest := d.g.Digest()
	applied := d.g.Applied()
	srv.Close()
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}

	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := eventlog.Read(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != applied {
		t.Fatalf("log holds %d events, grid applied %d", len(events), applied)
	}
	g, err := NewGrid(cfg.Grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Seq != g.Applied()+1 {
			t.Fatalf("log seq %d after applied %d: rejected event consumed a sequence number", e.Seq, g.Applied())
		}
		if err := g.Apply(e); err != nil {
			t.Fatalf("replaying seq %d: %v", e.Seq, err)
		}
	}
	if got := g.Digest(); got != liveDigest {
		t.Fatalf("replayed digest %s != live digest %s", got, liveDigest)
	}
}

// TestServerSubmitRejectsWholeBatch pins all-or-nothing submission: a bad
// base anywhere in the batch rejects the whole request before any
// submission is applied, so the client never loses ids to a half-applied
// batch.
func TestServerSubmitRejectsWholeBatch(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig()}
	d, srv := newTestDaemon(t, cfg)

	if resp := postJSON(t, srv.URL+"/submit", SubmitRequest{Bases: []float64{2, 0.5, 3}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with invalid base: status %v", resp.Status)
	}
	if a, c := d.g.Applied(), d.g.Counters().Submitted; a != 0 || c != 0 {
		t.Fatalf("rejected batch applied events: applied=%d submitted=%d", a, c)
	}
}

// TestDaemonStopLifecycle pins the Stop contract: Stop without Start
// returns immediately, repeated Stop is a no-op, and Stop after Start
// joins the ticker goroutine.
func TestDaemonStopLifecycle(t *testing.T) {
	d, err := NewDaemon(ServerConfig{Grid: testConfig(), Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: must not block on the ticker goroutine.
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDaemon(ServerConfig{Grid: testConfig(), Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d2.Start()
	d2.Start() // redundant Start is a no-op
	if err := d2.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServerColdCheck pins the warm-vs-cold comparison endpoint: it
// reports the same live set the grid holds, and does not mutate state.
func TestServerColdCheck(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig(), AdmitPending: 8}
	d, srv := newTestDaemon(t, cfg)

	postJSON(t, srv.URL+"/event", []map[string]any{
		{"type": "join", "mult": 1}, {"type": "join", "mult": 3},
	}, nil)
	postJSON(t, srv.URL+"/submit", SubmitRequest{Bases: []float64{2, 2, 3, 3, 4, 4, 5, 5}}, nil)

	before := d.g.Digest()
	var cc ColdCheck
	getJSON(t, srv.URL+"/coldcheck", &cc)
	if cc.Jobs != 8 || cc.Machines != 2 {
		t.Fatalf("coldcheck saw %dx%d, want 8x2", cc.Jobs, cc.Machines)
	}
	if cc.ColdMakespan <= 0 || cc.WarmMakespan <= 0 {
		t.Fatalf("coldcheck quality %+v", cc)
	}
	if d.g.Digest() != before {
		t.Fatal("cold re-solve mutated the live grid")
	}
}
