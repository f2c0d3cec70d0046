package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSubmitBackpressure429(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig(), MaxPending: 3, Window: time.Second}
	d, srv := newTestDaemon(t, cfg)

	var sub SubmitResponse
	resp := postJSON(t, srv.URL+"/submit", SubmitRequest{Base: 2, Count: 3}, &sub)
	if resp.StatusCode != http.StatusOK || len(sub.IDs) != 3 {
		t.Fatalf("filling submit: %s, ids %v", resp.Status, sub.IDs)
	}
	resp = postJSON(t, srv.URL+"/submit", SubmitRequest{Base: 2, Count: 1}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1 (the admission window)", ra)
	}
	// Same bound applies to submit events on /event.
	resp = postJSON(t, srv.URL+"/event", []map[string]any{{"type": "submit", "base": 2}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow event submit: %s, want 429", resp.Status)
	}
	if got := d.StatsNow().Rejected429; got != 2 {
		t.Fatalf("rejected_429 = %d, want 2", got)
	}

	// Admission drains the queue; submissions are accepted again.
	postJSON(t, srv.URL+"/event", map[string]any{"type": "join", "mult": 1}, nil)
	if resp = postJSON(t, srv.URL+"/admit", struct{}{}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %s", resp.Status)
	}
	if resp = postJSON(t, srv.URL+"/submit", SubmitRequest{Base: 2}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit after admission: %s, want 200", resp.Status)
	}
}

func TestOversizedBody413(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig(), MaxBodyBytes: 256}
	_, srv := newTestDaemon(t, cfg)
	big := `{"bases":[` + strings.Repeat("2,", 200) + `2]}`
	resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %s, want 413", resp.Status)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("413 body not a structured error: %v (%q)", err, body.Error)
	}
}

func TestDrainingDaemonRejects503(t *testing.T) {
	d, err := NewDaemon(ServerConfig{Grid: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(`{"base":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to stopped daemon: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestPanicRecoveryKeepsServing pins the recovery path: a handler panic
// becomes a structured 500, the state probe passes (the panic did not
// corrupt the grid), and the daemon keeps serving.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig()}
	d, srv := newTestDaemon(t, cfg)

	// Splice a panicking route into the daemon's own middleware chain.
	boom := d.gate(d.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("POST", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("kaboom")) {
		t.Fatalf("500 body %q does not name the panic", rec.Body.String())
	}

	st := d.StatsNow()
	if st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
	if st.Degraded {
		t.Fatal("clean state probe still marked the daemon degraded")
	}
	if resp := postJSON(t, srv.URL+"/submit", SubmitRequest{Base: 2}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit after recovered panic: %s, want 200", resp.Status)
	}
}

// TestDegradedDaemonRefusesMutations pins the other half: when the
// post-panic probe finds corruption, mutations get 503 while reads stay
// up for diagnosis.
func TestDegradedDaemonRefusesMutations(t *testing.T) {
	// Force the degraded flag the way a failed post-panic probe would.
	d2, srv2 := newTestDaemon(t, ServerConfig{Grid: testConfig()})
	d2.degraded.Store(true)
	resp := postJSON(t, srv2.URL+"/submit", SubmitRequest{Base: 2}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to degraded daemon: %s, want 503", resp.Status)
	}
	var st Stats
	getJSON(t, srv2.URL+"/stats", &st)
	if !st.Degraded {
		t.Fatal("stats on a degraded daemon do not say so")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			log := filepath.Join(dir, "wal.log")
			cfg := ServerConfig{
				Grid: testConfig(), LogPath: log,
				Fsync: policy, FsyncEvery: 5 * time.Millisecond,
			}
			d, srv := newTestDaemon(t, cfg)
			postJSON(t, srv.URL+"/event", map[string]any{"type": "join", "mult": 1}, nil)
			var sub SubmitResponse
			if resp := postJSON(t, srv.URL+"/submit", SubmitRequest{Base: 2, Count: 4}, &sub); resp.StatusCode != http.StatusOK {
				t.Fatalf("submit under %s: %s", policy, resp.Status)
			}
			postJSON(t, srv.URL+"/admit", struct{}{}, nil)
			if policy == FsyncInterval {
				time.Sleep(25 * time.Millisecond) // let the sync ticker run
			}
			if st := d.StatsNow(); st.Fsync != policy || st.WALErrors != 0 {
				t.Fatalf("stats under %s: fsync %q, wal_errors %d", policy, st.Fsync, st.WALErrors)
			}
		})
	}
	if _, err := NewDaemon(ServerConfig{Grid: testConfig(), Fsync: "sometimes"}); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
}

// TestStopDrainsBeforeWALClose pins the shutdown ordering: a stopped
// daemon's log replays to exactly the digest the live daemon reported,
// i.e. the final flush happened after the last acknowledged request.
func TestStopDrainsBeforeWALClose(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "wal.log")
	d, err := NewDaemon(ServerConfig{Grid: testConfig(), LogPath: log, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	postJSON(t, srv.URL+"/event", map[string]any{"type": "join", "mult": 1}, nil)
	postJSON(t, srv.URL+"/submit", SubmitRequest{Base: 3, Count: 8}, nil)
	postJSON(t, srv.URL+"/admit", struct{}{}, nil)
	want := d.StatsNow()
	liveDigest := func() string {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.g.Digest()
	}()
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal("second stop must be a clean no-op:", err)
	}

	g2, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayFile(g2, log); err != nil {
		t.Fatal(err)
	}
	if g2.Digest() != liveDigest {
		t.Fatal("replayed log does not reproduce the stopped daemon's digest")
	}
	if g2.Applied() != want.Applied {
		t.Fatalf("replayed %d events, daemon had applied %d", g2.Applied(), want.Applied)
	}
}
