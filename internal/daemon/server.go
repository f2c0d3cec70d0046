package daemon

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridcma/internal/eventlog"
)

// WAL fsync policies (ServerConfig.Fsync).
const (
	// FsyncAlways syncs at every mutating request acknowledgement: one
	// group commit covers the whole request batch, so an acknowledged
	// request is durable but throughput is not bounded by per-record
	// fsync latency.
	FsyncAlways = "always"
	// FsyncInterval syncs on a background ticker (FsyncEvery, default
	// 100ms): a crash loses at most one interval of acknowledged events.
	FsyncInterval = "interval"
	// FsyncNever (the default) flushes at admission boundaries and on
	// stop but leaves syncing to the OS page cache. A replicated primary
	// also flushes before each follower pull (ReplServer.pull), not per
	// event.
	FsyncNever = "never"
)

const (
	defaultMaxBody    = 1 << 20
	defaultFsyncEvery = 100 * time.Millisecond
)

// ServerConfig parameterises a Daemon around a Grid.
type ServerConfig struct {
	Grid Config `json:"grid"`
	// Window is the admission ticker period; admissions also fire when
	// AdmitPending submissions are waiting. Zero disables the ticker —
	// admissions then happen only via AdmitPending or explicit requests.
	Window time.Duration `json:"window"`
	// AdmitPending closes the admission window as soon as this many jobs
	// are pending (0 = ticker/explicit only).
	AdmitPending int `json:"admit_pending"`
	// LogPath appends every applied event to a write-ahead log; empty
	// disables persistence. The file is created if missing. The log is
	// buffered and flushed on snapshot, stop and admission boundaries.
	LogPath string `json:"log_path,omitempty"`
	// Fsync selects the WAL durability policy: FsyncAlways,
	// FsyncInterval or FsyncNever (empty = never).
	Fsync string `json:"fsync,omitempty"`
	// FsyncEvery is the FsyncInterval period (0 = 100ms).
	FsyncEvery time.Duration `json:"fsync_every,omitempty"`
	// MaxPending bounds the pending-admission queue: submissions that
	// would push it past the bound are rejected with 429 + Retry-After
	// instead of growing daemon memory without limit (0 = unbounded).
	MaxPending int `json:"max_pending,omitempty"`
	// MaxBodyBytes caps request bodies; oversized bodies get 413
	// (0 = 1 MiB).
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	// RequestTimeout bounds each handler's wall time; requests past it
	// get 503 (0 = unbounded).
	RequestTimeout time.Duration `json:"request_timeout,omitempty"`
	// TermPath persists the replication fencing term (see repl.go);
	// empty defaults to LogPath+".term" when a WAL is configured.
	TermPath string `json:"term_path,omitempty"`
}

// Daemon wraps a Grid with the HTTP API, the write-ahead event log and
// the admission timer. All grid access is serialised by one mutex; the
// timer only decides when an admit event is appended, so the trajectory
// stays a pure function of the persisted event sequence.
type Daemon struct {
	cfg ServerConfig

	mu      sync.Mutex
	g       *Grid
	wal     *eventlog.Writer
	walFile *os.File

	// Latency accounting (wall clock; observability only, never state).
	submitAt  map[uint64]time.Time
	placeLat  latHist // submit→placement, one sample per placed job
	admitWall latHist // wall time of each admission window
	started   time.Time

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	ticking  atomic.Bool // ticker goroutine launched; Stop must await done

	// Degradation machinery. In-flight requests hold reqMu for reading;
	// Stop takes it for writing to drain them before the final WAL
	// flush. closed (under mu) makes any handler that slipped past the
	// drain fail its apply instead of writing to a closed log.
	reqMu    sync.RWMutex
	draining atomic.Bool
	degraded atomic.Bool
	ready    atomic.Bool
	closed   bool

	panics    atomic.Uint64
	rej429    atomic.Uint64
	rej503    atomic.Uint64
	walErrors atomic.Uint64

	// Replication state (repl.go / replicator.go). The term is the
	// fencing epoch: it only moves forward, and persists before any role
	// change that claims it. fenced latches once a higher term is
	// observed — this node has been superseded and refuses writes.
	role       atomic.Int32
	term       atomic.Uint64
	termPath   string
	fenced     atomic.Bool
	fencedBy   atomic.Uint64
	replLag    atomic.Uint64
	replCaught atomic.Bool
	replMaxLag atomic.Uint64
	digests    *digestRing // under mu; nil until EnableReplication

	promoteMu sync.Mutex
	promoteFn func() (uint64, error)
}

// NewDaemon builds a daemon around a fresh grid.
func NewDaemon(cfg ServerConfig) (*Daemon, error) {
	g, err := NewGrid(cfg.Grid)
	if err != nil {
		return nil, err
	}
	return NewDaemonWith(g, cfg)
}

// NewDaemonWith builds a daemon around an existing (e.g. restored) grid.
// When cfg.LogPath is set, the log is opened for append and the writer
// continues from the grid's applied sequence number.
func NewDaemonWith(g *Grid, cfg ServerConfig) (*Daemon, error) {
	switch cfg.Fsync {
	case "", FsyncNever, FsyncAlways, FsyncInterval:
	default:
		return nil, fmt.Errorf("daemon: unknown fsync policy %q (want %s, %s or %s)",
			cfg.Fsync, FsyncAlways, FsyncInterval, FsyncNever)
	}
	d := &Daemon{
		cfg:      cfg,
		g:        g,
		submitAt: make(map[uint64]time.Time),
		started:  time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.LogPath != "" {
		f, err := os.OpenFile(cfg.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		d.walFile = f
		d.wal = eventlog.NewWriterAt(f, g.Applied())
	}
	d.termPath = cfg.TermPath
	if d.termPath == "" && cfg.LogPath != "" {
		d.termPath = cfg.LogPath + ".term"
	}
	term := uint64(1)
	if d.termPath != "" {
		t, err := loadTerm(d.termPath)
		if err != nil {
			return nil, err
		}
		if t > term {
			term = t
		}
	}
	d.term.Store(term)
	d.replCaught.Store(true)
	// A constructed daemon sits past snapshot restore and WAL replay, so
	// it is ready by default; serve loops that expose the listener before
	// recovery (cmd/gridd) flip readiness themselves via SetReady.
	d.ready.Store(true)
	return d, nil
}

// SetReady flips the /readyz signal. Liveness (/healthz) is unaffected:
// a recovering daemon is alive but not ready.
func (d *Daemon) SetReady(ready bool) { d.ready.Store(ready) }

// Start launches the background ticker goroutine: the admission window
// (when configured) and the FsyncInterval sync loop share one goroutine
// so Stop has a single thing to await. Redundant calls are no-ops.
func (d *Daemon) Start() {
	syncing := d.cfg.Fsync == FsyncInterval && d.wal != nil
	if (d.cfg.Window <= 0 && !syncing) || !d.ticking.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(d.done)
		var admitC, syncC <-chan time.Time
		if d.cfg.Window > 0 {
			t := time.NewTicker(d.cfg.Window)
			defer t.Stop()
			admitC = t.C
		}
		if syncing {
			every := d.cfg.FsyncEvery
			if every <= 0 {
				every = defaultFsyncEvery
			}
			t := time.NewTicker(every)
			defer t.Stop()
			syncC = t.C
		}
		for {
			select {
			case <-d.stop:
				return
			case <-admitC:
				if d.role.Load() == roleFollower || d.fenced.Load() {
					continue // admissions replicate from the primary
				}
				d.mu.Lock()
				if d.g.PendingCount() > 0 {
					d.applyLocked(eventlog.Event{Type: eventlog.Admit})
				}
				d.mu.Unlock()
			case <-syncC:
				d.mu.Lock()
				if err := d.syncLocked(); err != nil {
					d.walErrors.Add(1)
				}
				d.mu.Unlock()
			}
		}
	}()
}

// Stop drains and shuts down: new requests are turned away with 503,
// the ticker goroutine is awaited, in-flight handlers finish, and only
// then is the WAL given its final flush, fsync and close — so stopping
// under load never races the log against a half-served request. It is
// safe to call more than once and without a prior Start; only the first
// call closes the log.
func (d *Daemon) Stop() error {
	d.draining.Store(true)
	d.stopOnce.Do(func() { close(d.stop) })
	if d.ticking.Load() {
		<-d.done
	}
	// Barrier: acquiring the write lock waits for every in-flight
	// handler (read holders) to return.
	d.reqMu.Lock()
	d.reqMu.Unlock() //nolint:staticcheck // empty critical section is the drain
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.flushLocked(true)
	d.closed = true
	return err
}

func (d *Daemon) flushLocked(closeFile bool) error {
	if d.wal == nil {
		return nil
	}
	if err := d.wal.Flush(); err != nil {
		return err
	}
	if closeFile {
		err := d.walFile.Sync()
		if cerr := d.walFile.Close(); err == nil {
			err = cerr
		}
		d.wal, d.walFile = nil, nil
		return err
	}
	return d.walFile.Sync()
}

// syncLocked flushes the writer and fsyncs the log file; d.mu held.
func (d *Daemon) syncLocked() error {
	if d.wal == nil || d.closed {
		return nil
	}
	if err := d.wal.Flush(); err != nil {
		return err
	}
	return d.walFile.Sync()
}

// commitLocked is the group-commit barrier: under FsyncAlways a
// mutating request is not acknowledged until every event it appended is
// flushed and fsynced. One sync covers the whole request batch, which
// is what keeps "always" usable under load — per-record fsync would cap
// throughput at the disk's sync rate regardless of batch size.
func (d *Daemon) commitLocked() error {
	if d.cfg.Fsync != FsyncAlways {
		return nil
	}
	return d.syncLocked()
}

// applyLocked stamps e with the producer timestamp, applies it to the
// grid and then persists it; d.mu must be held. The grid goes first: a
// rejected event (structurally valid but inconsistent with grid state —
// a leave of an unknown machine, a duplicate complete) must not consume
// a WAL sequence number, or every later event would be stamped one ahead
// of the grid's applied counter and rejected forever. Apply leaves the
// grid unchanged on error, so the pre-stamped sequence number stays free
// for the next event. Admission events additionally record wall-clock
// metrics: window latency and per-job submit→placement latency.
func (d *Daemon) applyLocked(e eventlog.Event) (eventlog.Event, error) {
	if d.closed {
		return e, errors.New("daemon: stopped")
	}
	if d.fenced.Load() {
		return e, fmt.Errorf("daemon: fenced by term %d: a newer primary owns the log; this node is read-only",
			d.fencedBy.Load())
	}
	if d.role.Load() == roleFollower {
		return e, errors.New("daemon: follower: writes arrive via replication (POST /promote to take over)")
	}
	e.Seq = 0 // stamped below; clients cannot pick sequence numbers
	e.T = time.Since(d.started).Seconds()
	if d.wal != nil {
		e.Seq = d.wal.Seq() + 1
	}
	var t0 time.Time
	if e.Type == eventlog.Admit {
		t0 = time.Now()
	}
	if err := d.g.Apply(e); err != nil {
		return e, err
	}
	if d.wal != nil {
		if _, err := d.wal.Append(e); err != nil {
			// The grid advanced but the log did not: the log file is
			// failing and durability is gone — surface it loudly.
			d.walErrors.Add(1)
			return e, fmt.Errorf("daemon: event %d applied but not persisted: %w", e.Seq, err)
		}
	}
	d.recordDigestLocked()
	switch e.Type {
	case eventlog.Submit:
		d.submitAt[e.Job] = time.Now()
	case eventlog.Admit:
		now := time.Now()
		d.admitWall.record(now.Sub(t0))
		for _, p := range d.g.LastPlacements() {
			if at, ok := d.submitAt[p.Job]; ok {
				d.placeLat.record(now.Sub(at))
				delete(d.submitAt, p.Job)
			}
		}
		if d.wal != nil {
			d.wal.Flush()
		}
	}
	return e, nil
}

// maybeAdmitLocked closes the window if the pending threshold is reached.
func (d *Daemon) maybeAdmitLocked() bool {
	if d.cfg.AdmitPending <= 0 {
		return false
	}
	if d.g.PendingCount() >= d.cfg.AdmitPending {
		d.applyLocked(eventlog.Event{Type: eventlog.Admit})
		return true
	}
	return false
}

// Handler returns the daemon's HTTP API:
//
//	POST /submit   {"bases":[...]} or {"base":x,"count":n} → job ids
//	POST /event    one event object or an array (submit/join auto-id)
//	GET  /query    ?job=ID → job state
//	GET  /snapshot → full snapshot JSON (flushes the log first)
//	GET  /stats    → counters, live sizes, quality, latency percentiles
//	POST /admit    → force an admission window close
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", d.handleSubmit)
	mux.HandleFunc("POST /event", d.handleEvent)
	mux.HandleFunc("GET /query", d.handleQuery)
	mux.HandleFunc("GET /snapshot", d.handleSnapshot)
	mux.HandleFunc("GET /stats", d.handleStats)
	mux.HandleFunc("POST /admit", d.handleAdmit)
	mux.HandleFunc("GET /coldcheck", d.handleColdCheck)
	var h http.Handler = mux
	if d.cfg.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, d.cfg.RequestTimeout, `{"error":"request timed out"}`)
	}
	// The recover middleware sits outside the timeout handler because
	// http.TimeoutHandler re-raises inner-handler panics in its own
	// ServeHTTP caller — this ordering catches both direct and
	// re-raised panics.
	h = d.recoverPanics(h)
	gated := d.gate(h)
	// Health probes live OUTSIDE the gate: an orchestrator must be able
	// to distinguish "alive but draining/degraded/recovering" (healthz
	// 200, readyz 503) from "dead" (no answer) — gating them would
	// collapse the two.
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", d.handleHealthz)
	outer.HandleFunc("GET /readyz", d.handleReadyz)
	// Promotion also bypasses the gate: it is exactly the request a
	// follower (whose mutations the gate refuses) must accept.
	outer.HandleFunc("POST /promote", d.handlePromote)
	outer.Handle("/", gated)
	return outer
}

// handleHealthz is pure liveness: the process is serving HTTP.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(d.started).Seconds(),
		"applied":  d.g.Applied(),
		"degraded": d.degraded.Load(),
		"draining": d.draining.Load(),
		"role":     d.Role(),
		"term":     d.term.Load(),
	})
}

// handleReadyz reports whether the daemon should receive traffic: 503
// with a machine-readable reason while draining, while the degraded
// latch is set (state failed verification after a panic), after being
// fenced by a newer-term primary, before recovery (snapshot restore +
// WAL replay) has finished, or — on a follower — before the first
// catch-up ("catching-up") or while trailing the primary beyond the
// configured lag budget ("replica-lag").
func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	follower := d.role.Load() == roleFollower
	lag := d.replLag.Load()
	maxLag := d.replMaxLag.Load()
	reason := ""
	switch {
	case d.draining.Load():
		reason = "draining"
	case d.degraded.Load():
		reason = "degraded"
	case d.fenced.Load():
		reason = "fenced"
	case !d.ready.Load():
		reason = "recovering"
	case follower && !d.replCaught.Load():
		reason = "catching-up"
	case follower && maxLag > 0 && lag > maxLag:
		reason = "replica-lag"
	}
	if reason != "" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		body := map[string]any{"status": "unready", "reason": reason}
		if reason == "catching-up" || reason == "replica-lag" {
			body["lag"] = lag
		}
		json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, map[string]any{"status": "ready", "role": d.Role()})
}

// RecoveringHandler answers health probes before the daemon exists: the
// serve loop binds its listener first, serves this while the snapshot is
// restored and the WAL replayed, then swaps in Daemon.Handler. Liveness
// is green immediately (the process is up), readiness stays red, and any
// real API call gets an honest 503 instead of a connection refusal.
func RecoveringHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "unready", "reason": "recovering"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "daemon is recovering (snapshot restore + WAL replay)")
	})
	return mux
}

// gate is the outermost middleware: it refuses new work while the
// daemon drains or after state corruption, tracks in-flight requests so
// Stop can wait for them, and caps request bodies.
func (d *Daemon) gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.draining.Load() {
			d.rej503.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "daemon is shutting down")
			return
		}
		if d.degraded.Load() && r.Method != http.MethodGet {
			// Reads stay up for diagnosis; mutations are refused until
			// the operator rebuilds from the WAL.
			d.rej503.Add(1)
			httpError(w, http.StatusServiceUnavailable,
				"daemon degraded: state failed verification after a panic; restart to rebuild from the log")
			return
		}
		if r.Method != http.MethodGet {
			if d.fenced.Load() {
				d.rej503.Add(1)
				httpError(w, http.StatusServiceUnavailable,
					"daemon fenced: superseded by a term-%d primary; this node is read-only", d.fencedBy.Load())
				return
			}
			if d.role.Load() == roleFollower {
				d.rej503.Add(1)
				httpError(w, http.StatusServiceUnavailable,
					"daemon is a replication follower: send writes to the primary (or POST /promote to take over)")
				return
			}
		}
		d.reqMu.RLock()
		defer d.reqMu.RUnlock()
		maxBody := d.cfg.MaxBodyBytes
		if maxBody <= 0 {
			maxBody = defaultMaxBody
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		next.ServeHTTP(w, r)
	})
}

// recoverPanics turns a handler panic into a 500 and probes the grid's
// structural invariants before accepting more work: a clean probe means
// the panic unwound without half-applying a transition (Apply mutates
// only after validation), so the daemon keeps serving; a violation
// flips it to degraded, rejecting all further mutations.
func (d *Daemon) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			d.panics.Add(1)
			d.mu.Lock()
			err := d.g.CheckInvariants()
			d.mu.Unlock()
			if err != nil {
				d.degraded.Store(true)
				fmt.Fprintf(os.Stderr, "gridd: state verification failed after panic %v: %v\n", p, err)
			}
			httpError(w, http.StatusInternalServerError, "internal error: %v", p)
		}()
		next.ServeHTTP(w, r)
	})
}

// retryAfter is the Retry-After value for backpressure rejections: the
// admission window rounded up to whole seconds (pending drains at the
// next window close), floored at one second.
func (d *Daemon) retryAfter() string {
	secs := int(math.Ceil(d.cfg.Window.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// decodeJSON decodes a request body, mapping an exceeded body cap to
// 413 and anything else unparseable to 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"decoding %s: request body exceeds %d bytes", what, mbe.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return false
	}
	return true
}

func (d *Daemon) handleColdCheck(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	cc, _ := d.g.ColdResolve()
	d.mu.Unlock()
	writeJSON(w, cc)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// SubmitRequest is the body of POST /submit.
type SubmitRequest struct {
	Bases []float64 `json:"bases,omitempty"`
	Base  float64   `json:"base,omitempty"`
	Count int       `json:"count,omitempty"`
}

// SubmitResponse reports the assigned job ids and whether the batch
// tripped an admission.
type SubmitResponse struct {
	IDs      []uint64 `json:"ids"`
	Admitted bool     `json:"admitted"`
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeJSON(w, r, "submit", &req) {
		return
	}
	bases := req.Bases
	if len(bases) == 0 {
		if req.Count <= 0 {
			req.Count = 1
		}
		for i := 0; i < req.Count; i++ {
			bases = append(bases, req.Base)
		}
	}
	// Validate the whole batch before applying any of it: a mid-batch
	// rejection would leave earlier submissions applied (and persisted)
	// with their ids unreported.
	for i, b := range bases {
		if b < 1 {
			httpError(w, http.StatusBadRequest, "submit: bases[%d] = %v, want >= 1", i, b)
			return
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.MaxPending > 0 {
		if pending := d.g.PendingCount(); pending+len(bases) > d.cfg.MaxPending {
			d.rej429.Add(1)
			w.Header().Set("Retry-After", d.retryAfter())
			httpError(w, http.StatusTooManyRequests,
				"pending queue full: %d pending + %d submitted exceeds %d; retry after the next admission",
				pending, len(bases), d.cfg.MaxPending)
			return
		}
	}
	resp := SubmitResponse{IDs: make([]uint64, 0, len(bases))}
	for _, b := range bases {
		e := eventlog.Event{Type: eventlog.Submit, Job: d.g.NextJobID(), Base: b}
		if _, err := d.applyLocked(e); err != nil {
			// Only I/O failures reach here (the batch pre-validated);
			// report the ids already applied so the client can tell a
			// partial batch from a rejected one.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "ids": resp.IDs})
			return
		}
		resp.IDs = append(resp.IDs, e.Job)
	}
	resp.Admitted = d.maybeAdmitLocked()
	if err := d.commitLocked(); err != nil {
		d.walErrors.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]any{
			"error": fmt.Sprintf("submit applied but not durable: %v", err), "ids": resp.IDs,
		})
		return
	}
	writeJSON(w, resp)
}

func (d *Daemon) handleEvent(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage
	if !decodeJSON(w, r, "event", &raw) {
		return
	}
	var events []eventlog.Event
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &events); err != nil {
			httpError(w, http.StatusBadRequest, "decoding event array: %v", err)
			return
		}
	} else {
		var e eventlog.Event
		if err := json.Unmarshal(raw, &e); err != nil {
			httpError(w, http.StatusBadRequest, "decoding event: %v", err)
			return
		}
		events = []eventlog.Event{e}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.MaxPending > 0 {
		nSubmit := 0
		for _, e := range events {
			if e.Type == eventlog.Submit {
				nSubmit++
			}
		}
		if pending := d.g.PendingCount(); nSubmit > 0 && pending+nSubmit > d.cfg.MaxPending {
			d.rej429.Add(1)
			w.Header().Set("Retry-After", d.retryAfter())
			httpError(w, http.StatusTooManyRequests,
				"pending queue full: %d pending + %d submitted exceeds %d; retry after the next admission",
				pending, nSubmit, d.cfg.MaxPending)
			return
		}
	}
	applied := make([]eventlog.Event, 0, len(events))
	for _, e := range events {
		// Convenience: producers may leave ids to the daemon.
		if e.Type == eventlog.Submit && e.Job == 0 {
			e.Job = d.g.NextJobID()
		}
		if e.Type == eventlog.Join && e.Mach == 0 {
			e.Mach = d.g.NextMachID()
		}
		stamped, err := d.applyLocked(e)
		if err != nil {
			httpError(w, http.StatusBadRequest, "event %d of batch: %v", len(applied), err)
			return
		}
		applied = append(applied, stamped)
	}
	d.maybeAdmitLocked()
	if err := d.commitLocked(); err != nil {
		d.walErrors.Add(1)
		httpError(w, http.StatusInternalServerError, "events applied but not durable: %v", err)
		return
	}
	writeJSON(w, applied)
}

func (d *Daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("job"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "query: bad job id: %v", err)
		return
	}
	d.mu.Lock()
	info := d.g.Job(id)
	d.mu.Unlock()
	writeJSON(w, info)
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Externalise under the lock, write to the client outside it: a slow
	// snapshot reader must not stall submissions and the admission ticker
	// for the duration of the network write.
	d.mu.Lock()
	err := d.flushLocked(false)
	var snap *Snapshot
	if err == nil {
		snap = d.g.Snapshot()
	}
	d.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "flushing log: %v", err)
		return
	}
	writeJSON(w, snap)
}

func (d *Daemon) handleAdmit(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	e, err := d.applyLocked(eventlog.Event{Type: eventlog.Admit})
	placed := len(d.g.LastPlacements())
	var cerr error
	if err == nil {
		if cerr = d.commitLocked(); cerr != nil {
			d.walErrors.Add(1)
		}
	}
	d.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cerr != nil {
		httpError(w, http.StatusInternalServerError, "admit applied but not durable: %v", cerr)
		return
	}
	writeJSON(w, map[string]any{"seq": e.Seq, "placed": placed})
}

// Stats is the body of GET /stats.
type Stats struct {
	Applied   uint64   `json:"applied"`
	Counters  Counters `json:"counters"`
	Placed    int      `json:"placed"`
	Pending   int      `json:"pending"`
	Machines  int      `json:"machines"`
	Makespan  float64  `json:"makespan"`
	Flowtime  float64  `json:"flowtime"`
	Latency   LatStats `json:"latency"`
	AdmitWall LatStats `json:"admit_wall"`
	UptimeS   float64  `json:"uptime_s"`

	// Degradation observability.
	Fsync       string `json:"fsync"`
	MaxPending  int    `json:"max_pending,omitempty"`
	Panics      uint64 `json:"panics"`
	Rejected429 uint64 `json:"rejected_429"`
	Rejected503 uint64 `json:"rejected_503"`
	WALErrors   uint64 `json:"wal_errors"`
	Degraded    bool   `json:"degraded"`

	// Replication observability.
	Role       string `json:"role"`
	Term       uint64 `json:"term"`
	Fenced     bool   `json:"fenced,omitempty"`
	ReplicaLag uint64 `json:"replica_lag,omitempty"`
}

// LatStats summarises a wall-clock sample set in milliseconds; the
// percentiles come from a fixed-memory histogram (latency.go) and are
// within 1/64 relative error.
type LatStats struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// StatsNow builds the current stats under the daemon lock.
func (d *Daemon) StatsNow() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	placed, pending, machines := d.g.Live()
	mk, fl := d.g.Quality()
	return Stats{
		Applied:   d.g.Applied(),
		Counters:  d.g.Counters(),
		Placed:    placed,
		Pending:   pending,
		Machines:  machines,
		Makespan:  mk,
		Flowtime:  fl,
		Latency:   d.placeLat.stats(),
		AdmitWall: d.admitWall.stats(),
		UptimeS:   time.Since(d.started).Seconds(),

		Fsync:       cmp.Or(d.cfg.Fsync, FsyncNever),
		MaxPending:  d.cfg.MaxPending,
		Panics:      d.panics.Load(),
		Rejected429: d.rej429.Load(),
		Rejected503: d.rej503.Load(),
		WALErrors:   d.walErrors.Load(),
		Degraded:    d.degraded.Load(),

		Role:       d.Role(),
		Term:       d.term.Load(),
		Fenced:     d.fenced.Load(),
		ReplicaLag: d.replLag.Load(),
	}
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, d.StatsNow())
}
