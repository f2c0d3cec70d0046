package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/localsearch"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
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
	if stats.Makespan <= 0 || stats.Makespan >= 1e3 {
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

// gateLS is LMCTS behind a gate: Improve signals entered, waits for
// release, then searches. It holds a cold solve at a known point.
type gateLS struct{ entered, release chan struct{} }

func (l gateLS) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	close(l.entered)
	<-l.release
	localsearch.LMCTS{}.Improve(st, o, iters, r)
}
func (gateLS) Name() string { return "gated LMCTS" }

// TestColdCheckDoesNotStallWrites: /coldcheck holds the daemon's lock
// only while it extracts the live set. On a grid of 20k live jobs the
// cold solve is held at its search, and submits issued meanwhile must
// each return before it goes on, in well under the check's WallMs,
// which spans them all. A solve that held the lock would stall them until the
// client gives up. The gate makes the overlap certain: a bound on
// timings alone would compare the submits with the extraction, which
// stays under the lock and takes a fifth to a third of WallMs.
func TestColdCheckDoesNotStallWrites(t *testing.T) {
	const machs, jobs = 64, 20000
	grid := DefaultConfig()
	grid.JobCap = 32768
	d, srv := newTestDaemon(t, ServerConfig{Grid: grid})
	apply := func(e eventlog.Event) {
		t.Helper()
		if _, err := d.ApplyEvent(e); err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
	}
	for m := 1; m <= machs; m++ {
		apply(eventlog.Event{Type: eventlog.Join, Mach: uint64(m), Mult: float64(1 + m%3)})
	}
	for j := 1; j <= jobs; j++ {
		apply(eventlog.Event{Type: eventlog.Submit, Job: uint64(j), Base: float64(1 + j%8)})
	}
	apply(eventlog.Event{Type: eventlog.Admit})

	gate := gateLS{entered: make(chan struct{}), release: make(chan struct{})}
	d.g.ls = gate
	type coldResult struct {
		cc  ColdCheck
		err error
	}
	done := make(chan coldResult, 1)
	go func() {
		var res coldResult
		resp, err := http.Get(srv.URL + "/coldcheck")
		if err != nil {
			res.err = err
		} else {
			res.err = json.NewDecoder(resp.Body).Decode(&res.cc)
			resp.Body.Close()
		}
		done <- res
	}()
	select {
	case <-gate.entered:
	case res := <-done:
		t.Fatalf("coldcheck answered (%+v) without searching", res)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	var slowest time.Duration
	var stalled error
	for i := 0; i < 10 && stalled == nil; i++ {
		t0 := time.Now()
		resp, err := client.Post(srv.URL+"/submit", "application/json", strings.NewReader(`{"bases":[1]}`))
		if err != nil {
			stalled = err
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			stalled = fmt.Errorf("status %s", resp.Status)
		}
		slowest = max(slowest, time.Since(t0))
	}
	close(gate.release)
	res := <-done
	if stalled != nil {
		t.Fatalf("a submit issued while the cold solve ran failed: %v", stalled)
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.cc.Jobs != jobs {
		t.Fatalf("coldcheck saw %d jobs, want %d", res.cc.Jobs, jobs)
	}
	wall := time.Duration(res.cc.WallMs * float64(time.Millisecond))
	if slowest >= wall/2 {
		t.Fatalf("the slowest submit took %v, the cold check %v", slowest, wall)
	}
	t.Logf("10 submits during a %v cold check, the slowest %v", wall, slowest)
}

// TestServerEventBatchCommitsAppliedPrefix pins the partial-batch
// contract of /event: when event k of a batch is rejected, the k events
// before it are in the grid and the log, so under FsyncAlways they are
// on disk before the 400 goes out, the admission threshold they reach
// still closes a window, and the 400 body lists them, stamped, under
// "applied".
func TestServerEventBatchCommitsAppliedPrefix(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	d, err := NewDaemon(ServerConfig{Grid: testConfig(), AdmitPending: 2, LogPath: wal, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	rec := httptest.NewRecorder()
	body := `[{"type":"join","mult":1},{"type":"submit","base":2},{"type":"submit","base":3},{"type":"leave","mach":99}]`
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/event", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch ending in a leave of an unknown machine: status %d %s", rec.Code, rec.Body)
	}
	var reply struct {
		Error   string           `json:"error"`
		Applied []eventlog.Event `json:"applied"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("400 body %q: %v", rec.Body, err)
	}
	if !strings.Contains(reply.Error, "event 3 of batch") {
		t.Fatalf("400 error %q does not name event 3", reply.Error)
	}
	// The log on disk, unflushed by anything but the commit barrier.
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := eventlog.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.g.Applied(); got != 4 || len(logged) != 4 {
		t.Fatalf("grid applied %d, log on disk holds %d events; want the 3 applied events and their admission", got, len(logged))
	}
	if logged[3].Type != eventlog.Admit || d.g.Counters().Admits != 1 {
		t.Fatalf("the applied prefix reached AdmitPending but closed no window: log %+v", logged)
	}
	if len(reply.Applied) != 3 {
		t.Fatalf("400 body lists %d applied events, want 3", len(reply.Applied))
	}
	for i, e := range reply.Applied {
		want := logged[i]
		want.Crc = 0
		if !reflect.DeepEqual(e, want) {
			t.Fatalf("applied[%d] = %+v, logged %+v", i, e, want)
		}
	}
}

// blockingWriter is a ResponseWriter whose Write blocks until release
// closes: a client that stopped reading its reply.
type blockingWriter struct {
	header   http.Header
	writing  chan struct{}
	release  chan struct{}
	signaled bool
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(b []byte) (int, error) {
	if !w.signaled {
		w.signaled = true
		close(w.writing)
	}
	<-w.release
	return len(b), nil
}

// TestServerWritesRepliesOutsideLock pins that /submit and /event write
// their replies after releasing d.mu: with no request timeout (so no
// TimeoutHandler buffer in between), a client stalled on its reply must
// not stall StatsNow, and with it every other request and the
// admission ticker.
func TestServerWritesRepliesOutsideLock(t *testing.T) {
	d, err := NewDaemon(ServerConfig{Grid: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	h := d.Handler()
	for _, req := range []struct{ path, body string }{
		{"/event", `[{"type":"join","mult":1}]`},
		{"/submit", `{"bases":[2,3]}`},
	} {
		w := &blockingWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
		served := make(chan struct{})
		go func() {
			defer close(served)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		}()
		select {
		case <-w.writing:
		case <-time.After(10 * time.Second):
			t.Fatalf("POST %s never wrote its reply", req.path)
		}
		stats := make(chan Stats)
		go func() { stats <- d.StatsNow() }()
		select {
		case <-stats:
		case <-time.After(5 * time.Second):
			close(w.release)
			<-stats
			t.Fatalf("POST %s holds the daemon lock while it writes its reply", req.path)
		}
		close(w.release)
		<-served
	}
}

// failWriter is a log file whose every write fails.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk failed") }

// TestServerLogFailureReportsWhatTheGridHolds pins the replies to a log
// write failing mid-batch: a 500 whose "ids" (/submit) or "applied"
// (/event) list every event the grid holds, the one the write failed on
// included, since the grid applies an event before it logs it.
func TestServerLogFailureReportsWhatTheGridHolds(t *testing.T) {
	const n = 200
	bases := strings.Repeat("2,", n-1) + "2"
	events := strings.Repeat(`{"type":"submit","base":2},`, n-1) + `{"type":"submit","base":2}`
	for _, req := range []struct{ path, body, key string }{
		{"/submit", `{"bases":[` + bases + `]}`, "ids"},
		{"/event", "[" + events + "]", "applied"},
	} {
		d, err := NewDaemon(ServerConfig{Grid: testConfig()})
		if err != nil {
			t.Fatal(err)
		}
		// The log's writes fail once its buffer fills, partway into the
		// batch.
		d.wal = eventlog.NewWriter(failWriter{})
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		d.Stop()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("POST %s with a failing log: %d %s, want 500", req.path, rec.Code, rec.Body)
		}
		var reply map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("POST %s: 500 body %q: %v", req.path, rec.Body, err)
		}
		var listed []json.RawMessage
		if err := json.Unmarshal(reply[req.key], &listed); err != nil {
			t.Fatalf("POST %s: 500 body %q has no %q list: %v", req.path, rec.Body, req.key, err)
		}
		held := d.g.Applied()
		if held == 0 || held == n {
			t.Fatalf("POST %s: the log failed after %d of %d events, want partway", req.path, held, n)
		}
		if uint64(len(listed)) != held {
			t.Fatalf("POST %s: the grid holds %d events, the 500 body lists %d", req.path, held, len(listed))
		}
	}
}

// TestServerCountsFailedAdmissionFlush pins that the flush closing an
// admission window counts in wal_errors when the log fails, as every
// other flush does. The admission ticker applies admits and commits
// nothing after them, so this flush is the only one that can see it.
func TestServerCountsFailedAdmissionFlush(t *testing.T) {
	d, err := NewDaemon(ServerConfig{Grid: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	d.wal = eventlog.NewWriter(failWriter{})
	// Both records fit the log's buffer, so only the flush writes.
	d.mu.Lock()
	_, serr := d.applyLocked(eventlog.Event{Type: eventlog.Submit, Job: d.g.NextJobID(), Base: 2})
	_, aerr := d.applyLocked(eventlog.Event{Type: eventlog.Admit})
	d.mu.Unlock()
	if serr != nil || aerr != nil {
		t.Fatalf("submit: %v; admit: %v", serr, aerr)
	}
	if got := d.StatsNow().WALErrors; got != 1 {
		t.Fatalf("wal_errors = %d after a failed admission flush, want 1", got)
	}
}

// TestServerRepliesMatchEncodingJSON pins the reply encoders to the
// replies encoding/json wrote before them: /submit byte for byte, and
// /event value for value.
func TestServerRepliesMatchEncodingJSON(t *testing.T) {
	for _, r := range []SubmitResponse{
		{IDs: []uint64{1}, Admitted: true},
		{IDs: []uint64{7, 8, 18446744073709551615}},
		{IDs: []uint64{}},
	} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(r)
		if got := appendSubmitReply(nil, r.IDs, r.Admitted); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("submit reply %q, encoding/json %q", got, want.Bytes())
		}
	}
	events := []eventlog.Event{
		{Seq: 1, T: 3.5e-05, Type: eventlog.Join, Mach: 1, Mult: 1.5},
		{Seq: 2, T: 1000000.1, Type: eventlog.Submit, Job: 1, Base: 12345678.9},
		{Seq: 3, T: 2, Type: eventlog.Complete, Job: 1},
		{Seq: 4, Type: eventlog.Admit},
		{Seq: 5, Type: eventlog.Admit, Moves: []eventlog.Move{}},
		{Seq: 6, Type: eventlog.Admit, Moves: []eventlog.Move{{Job: 1, Mach: 2}, {Job: 3, Mach: 1}}},
	}
	for _, evs := range [][]eventlog.Event{events, events[:1], {}} {
		var got []eventlog.Event
		if err := json.Unmarshal(appendEvents(nil, evs), &got); err != nil {
			t.Fatal(err)
		}
		if !equalEvents(got, evs) {
			t.Errorf("event reply decodes to %+v, want %+v", got, evs)
		}
	}
}

// BenchmarkEventReply guards the /event reply encoder: 128 stamped
// completes encoded into a reused buffer must not allocate. CI runs it
// once under the allocation guard with BenchmarkParseEvents.
func BenchmarkEventReply(b *testing.B) {
	events := make([]eventlog.Event, 128)
	for i := range events {
		events[i] = eventlog.Event{Seq: uint64(1e6 + i), T: 123.456789 + float64(i), Type: eventlog.Complete, Job: uint64(1000 + i)}
	}
	buf := append(appendEvents(nil, events), '\n')
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = append(appendEvents(buf[:0], events), '\n')
	}
}

// FuzzHTTPBodies posts arbitrary bytes to /event and then to /submit
// of a fresh daemon with a WAL. Neither handler may answer 500 or
// panic, and after every request the grid keeps its invariants and a
// replay of the WAL lands on the live digest. It is also the
// differential oracle of the one-pass body decoders: whatever
// eventlog.ParseEvents or parseBases accepts, encoding/json must decode
// to the same value, and every /event reply that reports events (a 200,
// or a 400 with "applied") must decode to the events the request
// appended to the WAL, but for the admission their submits may close.
// A batch holding an admit that carries a search outcome is a 400 (or a
// 429 or 413, refused before any event applies).
func FuzzHTTPBodies(f *testing.F) {
	for _, b := range [][2]string{
		{`[{"type":"join","mult":1},{"type":"join","mult":2}]`, `{"bases":[2,3,4,5]}`},
		{`{"type":"leave","mach":99}`, `{"base":2,"count":3}`},
		{`[{"type":"submit","base":2}]`, `{"bases":[2,0.5,3]}`},
		{`{"type":"join","mult":1}`, `{"base":2}`},
		{`[{"type":"join","mult":1},{"type":"submit","base":3},{"type":"admit"},{"type":"complete","job":1}]`, `{}`},
		{`[{"type":"join","mult":1},{"type":"fail","mach":1}]`, `{"bases":[7,8,9]}`},
		{`[]`, `{"base":2,"count":4000000000000}`},
		// Canonical bodies, the one-pass decoders' own form.
		{`[{"type":"join","mult":1},{"type":"join","mult":2.5},{"type":"submit","job":1,"base":3.25}]`, `{"bases":[1.5,2,123456.789]}`},
		{`[{"type":"join","mach":3,"mult":1},{"type":"complete","job":1},{"type":"leave","mach":3}]`, `{"bases":[1e+06,1]}`},
		{`{"seq":9,"t":0.5,"type":"join","mult":3,"crc":12345}`, `{"bases":[2]}`},
		{`[{"type":"submit","base":2},{"type":"submit","base":2},{"type":"complete","job":2},{"type":"complete","job":9}]`, `{"bases":[]}`},
		// Admits carrying a search outcome: a 400, the events before them applied.
		{`{"type":"admit","moves":[]}`, `{"bases":[2]}`},
		{`[{"type":"join","mult":1},{"type":"submit","base":2},{"type":"admit","moves":[[1,1]]},{"type":"complete","job":1}]`, `{"bases":[3]}`},
		{`[{"type":"join","mult":1}, {"type":"admit","moves":[[1,1]]}]`, `{}`},
	} {
		f.Add([]byte(b[0]), []byte(b[1]))
	}
	f.Fuzz(func(t *testing.T, event, submit []byte) {
		if evs, ok := eventlog.ParseEvents(event, nil); ok {
			var ref []eventlog.Event
			var err error
			if event[0] == '[' {
				err = json.Unmarshal(event, &ref)
			} else {
				ref = make([]eventlog.Event, 1)
				err = json.Unmarshal(event, &ref[0])
			}
			if err != nil || !equalEvents(evs, ref) {
				t.Fatalf("ParseEvents(%q) = %+v, encoding/json %+v (%v)", event, evs, ref, err)
			}
		}
		if bases, ok := parseBases(submit, nil); ok {
			var ref SubmitRequest
			if err := json.Unmarshal(submit, &ref); err != nil || ref.Base != 0 || ref.Count != 0 || !slices.Equal(bases, ref.Bases) {
				t.Fatalf("parseBases(%q) = %v, encoding/json %+v (%v)", submit, bases, ref, err)
			}
		}

		wal := filepath.Join(t.TempDir(), "wal.log")
		cfg := ServerConfig{Grid: fuzzGridConfig(), AdmitPending: 3, MaxPending: 16, LogPath: wal}
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		h := d.Handler()
		var logged []eventlog.Event
		for _, req := range []struct {
			path string
			body []byte
		}{{"/event", event}, {"/submit", submit}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("POST %s %q: 500 %s", req.path, req.body, rec.Body)
			}
			if n := d.panics.Load(); n != 0 {
				t.Fatalf("POST %s %q: %d panics", req.path, req.body, n)
			}
			d.mu.Lock()
			err := d.g.CheckInvariants()
			live := d.g.Digest()
			d.mu.Unlock()
			if err != nil {
				t.Fatalf("POST %s %q (status %d): %v", req.path, req.body, rec.Code, err)
			}
			if err := d.FlushWAL(); err != nil {
				t.Fatal(err)
			}
			g, err := NewGrid(cfg.Grid)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReplayFile(g, wal); err != nil {
				t.Fatalf("POST %s %q: replaying the WAL: %v", req.path, req.body, err)
			}
			if got := g.Digest(); got != live {
				t.Fatalf("POST %s %q: WAL replay digest %s, live %s", req.path, req.body, got, live)
			}
			data, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			all, err := eventlog.Read(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			appended := all[len(logged):]
			logged = all
			if req.path == "/event" {
				checkEventReply(t, rec, req.body, appended)
				if clientOutcome(req.body) && rec.Code != http.StatusBadRequest &&
					rec.Code != http.StatusTooManyRequests && rec.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("POST /event %q: an admit carrying a search outcome answered %d, want 400", req.body, rec.Code)
				}
			}
		}
	})
}

// clientOutcome reports whether an /event body decodes, as the handler
// decodes it, to a batch holding an admit that carries a search outcome:
// a record only the primary's own log may hold.
func clientOutcome(body []byte) bool {
	evs, ok := eventlog.ParseEvents(body, nil)
	if !ok {
		var err error
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
			evs = nil
			err = json.Unmarshal(body, &evs)
		} else {
			evs = make([]eventlog.Event, 1)
			err = json.Unmarshal(body, &evs[0])
		}
		if err != nil {
			return false
		}
	}
	for _, e := range evs {
		if e.Type == eventlog.Admit && e.Moves != nil {
			return true
		}
	}
	return false
}

// equalEvents reports whether a and b hold equal events, a nil search
// outcome unequal to an empty one.
func equalEvents(a, b []eventlog.Event) bool {
	return slices.EqualFunc(a, b, func(x, y eventlog.Event) bool { return reflect.DeepEqual(x, y) })
}

// checkEventReply checks that an /event reply which reports events
// decodes to the events the request appended to the WAL, crc aside,
// followed by at most the admission the request closed.
func checkEventReply(t *testing.T, rec *httptest.ResponseRecorder, body []byte, appended []eventlog.Event) {
	t.Helper()
	var reply []eventlog.Event
	switch rec.Code {
	case http.StatusOK:
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("POST /event %q: 200 reply %q: %v", body, rec.Body, err)
		}
	case http.StatusBadRequest:
		var partial struct {
			Applied []eventlog.Event `json:"applied"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
			t.Fatalf("POST /event %q: 400 reply %q: %v", body, rec.Body, err)
		}
		reply = partial.Applied
	default:
		return
	}
	want := slices.Clone(appended)
	for i := range want {
		want[i].Crc = 0
	}
	if n := len(reply); n+1 == len(want) && want[n].Type == eventlog.Admit {
		want = want[:n]
	}
	if !equalEvents(reply, want) {
		t.Fatalf("POST /event %q: %d reply %q, the WAL gained %+v", body, rec.Code, rec.Body, appended)
	}
}
