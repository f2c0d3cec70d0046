package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridcma"
	"gridcma/internal/daemon"
	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
)

// gridd-ingest sizes: 64 machines, 2048 live jobs, and each /submit
// carries one admission window's worth of jobs (AdmitPending = batch).
// ingestJobRate is jobs per second on the reference machine.
const (
	ingestMachines   = 64
	ingestBatch      = 128
	ingestLive       = 2048
	ingestJobCap     = 4096
	ingestJobRate    = 16000
	ingestStatsEvery = 64
	// liveSamples is how many live instances a WAL replay samples for
	// quality_gap, evenly spaced over the run's admission windows.
	liveSamples = 64
)

// httpClient is the closed-loop client: one goroutine, one keep-alive
// connection. When traced it records a span per request and tells the
// server-side middleware the request id and span through headers.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *tracer
	reqs uint64
}

func newHTTPClient(addr string, tr *tracer) *httpClient {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: "http://" + addr, hc: &http.Client{Transport: t, Timeout: time.Minute}, tr: tr}
}

// do sends one request, reads the whole reply and returns the round-trip
// time. Any status but 200 is an error.
func (c *httpClient) do(method, path string, body []byte, out any) (time.Duration, error) {
	c.reqs++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var id, s0 int64
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set("X-Bench-Req", strconv.FormatUint(c.reqs, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(id, 10))
		s0 = c.tr.now()
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if c.tr != nil {
		c.tr.record(id, "http.client", 0, c.reqs, s0)
	}
	if err != nil {
		return rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return rtt, json.Unmarshal(data, out)
	}
	return rtt, nil
}

// timeRoutes wraps the daemon's handler in a per-route timing middleware:
// one span per request, named daemon.http.<route>, linked to the client's
// span through the headers httpClient sets.
func timeRoutes(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := tr.now()
		h.ServeHTTP(w, r)
		req, _ := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		tr.record(0, "daemon.http."+strings.TrimPrefix(r.URL.Path, "/"), parent, req, t0)
	})
}

// ingestRig is one daemon served on a loopback port with its client.
type ingestRig struct {
	gcfg    daemon.Config
	walPath string
	d       *daemon.Daemon
	c       *httpClient
	close   func() error // stops the client, the server and the daemon; idempotent
}

// newIngestRig boots a daemon with a WAL in dir, serves it and joins the
// machines: the workload's set-up. tr != nil wraps the handler in
// timeRoutes.
func newIngestRig(rc *runCtx, dir string, tr *tracer) (*ingestRig, error) {
	g := &ingestRig{gcfg: daemon.DefaultConfig(), walPath: filepath.Join(dir, "wal.log")}
	g.gcfg.Seed = rc.seed
	g.gcfg.JobCap = ingestJobCap
	d, err := daemon.NewDaemon(daemon.ServerConfig{Grid: g.gcfg, AdmitPending: ingestBatch, LogPath: g.walPath, Fsync: daemon.FsyncNever})
	if err != nil {
		return nil, err
	}
	g.d = d
	h := d.Handler()
	if tr != nil {
		h = timeRoutes(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Stop()
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	g.c = newHTTPClient(ln.Addr().String(), tr)
	g.close = sync.OnceValue(func() error {
		g.c.hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // a timeout leaves connections to Close below
		srv.Close()
		<-served
		return d.Stop() // flushes and closes the WAL
	})

	// An even mix of machine speeds: the lower bound's looseness depends
	// on the mix, so a mix drawn from the seed would make quality_gap
	// swing with the seed.
	joins := make([]eventlog.Event, ingestMachines)
	for i := range joins {
		joins[i] = eventlog.Event{Type: eventlog.Join, Mult: float64(1 + i%3)}
	}
	body, err := json.Marshal(joins)
	if err == nil {
		_, err = g.c.do("POST", "/event", body, nil)
	}
	if err != nil {
		return nil, errors.Join(err, g.close())
	}
	return g, nil
}

// ingestOut is what one drive of the closed loop leaves for the metrics.
type ingestOut struct {
	submits []time.Duration // /submit round trips
	stats   []time.Duration // /stats round trips
	bodies  [][]byte        // traced: the request bodies, for the JSON decode replay
	failed  int             // submits that were not admitted whole
	reqs    int
}

// drive runs the closed loop for jobs jobs: /submit one window of CVB-hi
// job bases, /event-complete the oldest jobs beyond the live target, and
// every ingestStatsEvery submits one GET /stats. Traced, it also times
// Daemon.StatsNow next to every /stats, outside sw.
func (g *ingestRig) drive(rc *runCtx, jobs int, sw *stopwatch) (ingestOut, error) {
	var out ingestOut
	base := etc.BaseStream(rc.seed^0xcbb5eed, etc.High)
	keep := g.c.tr != nil
	oldest := uint64(1)
	sw.start()
	defer sw.stop()
	for n, submitted := 1, 0; submitted < jobs; n++ {
		req := daemon.SubmitRequest{Bases: make([]float64, ingestBatch)}
		for i := range req.Bases {
			req.Bases[i] = base()
		}
		body, err := json.Marshal(req)
		if err != nil {
			return out, err
		}
		var sr daemon.SubmitResponse
		rtt, err := g.c.do("POST", "/submit", body, &sr)
		if err != nil {
			return out, err
		}
		out.submits = append(out.submits, rtt)
		if !sr.Admitted || len(sr.IDs) != ingestBatch {
			out.failed++
		}
		submitted += ingestBatch
		if keep {
			out.bodies = append(out.bodies, body)
		}
		if over := submitted - int(oldest-1) - ingestLive; over > 0 {
			done := make([]eventlog.Event, over)
			for i := range done {
				done[i] = eventlog.Event{Type: eventlog.Complete, Job: oldest}
				oldest++
			}
			if body, err = json.Marshal(done); err != nil {
				return out, err
			}
			if _, err := g.c.do("POST", "/event", body, nil); err != nil {
				return out, err
			}
			if keep {
				out.bodies = append(out.bodies, body)
			}
		}
		if n%ingestStatsEvery == 0 {
			var st daemon.Stats
			rtt, err := g.c.do("GET", "/stats", nil, &st)
			if err != nil {
				return out, err
			}
			out.stats = append(out.stats, rtt)
			if keep {
				sw.stop()
				t0 := g.c.tr.now()
				g.d.StatsNow()
				g.c.tr.record(0, "daemon.stats", 0, 0, t0)
				sw.start()
			}
		}
	}
	out.reqs = int(g.c.reqs)
	return out, nil
}

// finalSnapshot fetches /snapshot (which flushes the WAL), restores a grid
// from it and checks the grid's invariants.
func (g *ingestRig) finalSnapshot(rc *runCtx) (*daemon.Grid, string, error) {
	var snap daemon.Snapshot
	if _, err := g.c.do("GET", "/snapshot", nil, &snap); err != nil {
		return nil, "", err
	}
	restored, err := daemon.Restore(&snap)
	if err != nil {
		return nil, "", fmt.Errorf("restoring the final snapshot: %w", err)
	}
	err = restored.CheckInvariants()
	rc.check("snapshot invariants", err == nil, "%v", err)
	return restored, snap.Digest, nil
}

// readWAL reads a WAL file and decodes its events.
func readWAL(path string) ([]byte, []eventlog.Event, error) {
	wal, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	events, err := eventlog.Read(bytes.NewReader(wal))
	return wal, events, err
}

// liveRatio checks the live schedule of g and returns its makespan ÷ the
// lower bound of its live instance; ok is false when nothing is placed.
func liveRatio(rc *runCtx, g *daemon.Grid) (r float64, ok bool) {
	in, sched := g.LiveInstance()
	if in == nil {
		return 0, false
	}
	mk, _, _ := gridcma.Evaluate(in, sched)
	return checkBound(rc, in.Name, lowerBound(in), mk), true
}

// replayLive replays a WAL onto a fresh grid, event by event as
// daemon.ReplayFile does, and samples the live instance after liveSamples
// admission windows spread evenly over the log. It returns the final grid
// and the samples' makespan ÷ lower bound.
func replayLive(rc *runCtx, gcfg daemon.Config, walPath string) (*daemon.Grid, []float64, error) {
	_, events, err := readWAL(walPath)
	if err != nil {
		return nil, nil, err
	}
	admits := 0
	for _, e := range events {
		if e.Type == eventlog.Admit {
			admits++
		}
	}
	every := max(1, admits/liveSamples)
	g, err := daemon.NewGrid(gcfg)
	if err != nil {
		return nil, nil, err
	}
	var ratios []float64
	k := 0
	for _, e := range events {
		if err := g.Apply(e); err != nil {
			return nil, nil, fmt.Errorf("replaying event %d: %w", e.Seq, err)
		}
		if e.Type != eventlog.Admit {
			continue
		}
		if k++; k%every == 0 {
			if r, ok := liveRatio(rc, g); ok {
				ratios = append(ratios, r)
			}
		}
	}
	return g, ratios, nil
}

// applyName maps an event type to its layer name; leave and fail share
// one transition.
func applyName(t eventlog.Type) string {
	if t == eventlog.Fail {
		t = eventlog.Leave
	}
	return "daemon.grid.apply." + string(t)
}

// timedApply applies e to g and appends it to w, one span each, and
// returns the time the two took.
func timedApply(tr *tracer, g *daemon.Grid, w *eventlog.Writer, e eventlog.Event, req uint64) (time.Duration, error) {
	t0 := tr.now()
	err := g.Apply(e)
	d := tr.record(0, applyName(e.Type), 0, req, t0)
	if err != nil {
		return d, fmt.Errorf("replaying event %d: %w", req, err)
	}
	t0 = tr.now()
	_, err = w.Append(e)
	return d + tr.record(0, "eventlog.append", 0, req, t0), err
}

// timedFlush flushes w in a span and returns the time it took.
func timedFlush(tr *tracer, w *eventlog.Writer, req uint64) (time.Duration, error) {
	t0 := tr.now()
	err := w.Flush()
	return tr.record(0, "eventlog.flush", 0, req, t0), err
}

// replayIngestWAL replays a daemon's WAL through a bare Grid and Writer,
// timing Grid.Apply per event type, Writer.Append per event and
// Writer.Flush at every admission (where the daemon flushes), then decodes
// the recorded request bodies as the handlers do. The replay must write
// the daemon's bytes.
func replayIngestWAL(rc *runCtx, gcfg daemon.Config, walPath, outPath string, bodies [][]byte) error {
	tr := rc.tr
	wal, events, err := readWAL(walPath)
	if err != nil {
		return err
	}
	g, err := daemon.NewGrid(gcfg)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	w := eventlog.NewWriter(f)
	for _, e := range events {
		if _, err := timedApply(tr, g, w, e, e.Seq); err != nil {
			return err
		}
		if e.Type == eventlog.Admit {
			if _, err := timedFlush(tr, w, e.Seq); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	replayed, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	rc.check("replayed WAL bytes = WAL", bytes.Equal(replayed, wal), "replay wrote %d bytes, the daemon %d", len(replayed), len(wal))
	c := g.Counters()
	rc.put("daemon.admit.placed_per_window", ratio(float64(c.Placed), float64(c.Admits)))

	for _, b := range bodies {
		t0 := tr.now()
		if b[0] == '[' {
			var evs []eventlog.Event
			err = json.Unmarshal(b, &evs)
		} else {
			var req daemon.SubmitRequest
			err = json.Unmarshal(b, &req)
		}
		tr.record(0, "json.decode", 0, 0, t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// putGridLayers reports the spans of a bare-grid replay against the wall
// time they explain, for every apply type in ops plus the log, and
// returns their summed busy time.
func putGridLayers(rc *runCtx, wall time.Duration, ops ...string) time.Duration {
	var busy time.Duration
	for _, op := range ops {
		name := "daemon.grid.apply." + op
		s := rc.tr.sum(name)
		busy += s.busy
		if op == "submit" || op == "complete" || op == "admit" {
			rc.put(name+".n", float64(s.n))
		}
		rc.put(name+".mean_us", s.meanUs())
		rc.put(name+".share", s.busy.Seconds()/wall.Seconds())
	}
	for _, name := range []string{"eventlog.append", "eventlog.flush"} {
		s := rc.tr.sum(name)
		busy += s.busy
		rc.put(name+".mean_us", s.meanUs())
		rc.put(name+".share", s.busy.Seconds()/wall.Seconds())
	}
	return busy
}

// runIngest is the online path under a closed loop with one client on one
// daemon. A step is one /submit round trip: the jobs it carries are placed
// by the admission window it closes.
func runIngest(rc *runCtx) error {
	jobs := rc.count(ingestJobRate, 4*ingestBatch)
	if rc.quick {
		jobs = 4096
	}
	jobs = (jobs + ingestBatch - 1) / ingestBatch * ingestBatch

	// Set-up is booting the daemon and joining its machines; the last of
	// the set-ups serves the measured phase.
	var m measured
	base := heapMiB()
	var rig *ingestRig
	for r := 0; r < setupRepeats; r++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(rc.dir, "ingest-")
		if err != nil {
			return err
		}
		d, err := timeSetup(func() (err error) {
			rig, err = newIngestRig(rc, dir, nil)
			return err
		})
		if err != nil {
			return err
		}
		m.setups = append(m.setups, d)
	}
	defer rig.close()
	plain, err := rig.drive(rc, jobs, &m.sw)
	if err != nil {
		return err
	}
	m.heap = heapMiB() - base
	m.steps, m.step = plain.submits, "place"
	rc.ops(plain.reqs, plain.failed)
	final, digest, err := rig.finalSnapshot(rc)
	if err != nil {
		return err
	}
	replayed, ratios, err := replayLive(rc, rig.gcfg, rig.walPath)
	if err != nil {
		return err
	}
	rc.check("WAL replay = snapshot", replayed.Digest() == digest, "replayed digest %s, snapshot %s", replayed.Digest(), digest)
	m.ratios = ratios
	rc.putEndToEnd(&m)
	rc.put("jobs_per_s", float64(jobs)/m.sw.wall.Seconds())
	rc.putN("stats_p50_ms", quantile(millis(plain.stats), 0.5), len(plain.stats))
	if !rc.trace {
		return rig.close()
	}

	// The traced phase: the same loop on a fresh daemon behind timeRoutes,
	// then its WAL replayed through a bare Grid and Writer.
	tr := rc.tr
	dir, err := os.MkdirTemp(rc.dir, "ingest-traced-")
	if err != nil {
		return err
	}
	trig, err := newIngestRig(rc, dir, tr)
	if err != nil {
		return err
	}
	defer trig.close()
	mark := tr.mark()
	var tsw stopwatch
	traced, err := trig.drive(rc, jobs, &tsw)
	if err != nil {
		return err
	}
	outside := tr.pairs(mark, "http.client", "daemon.http.submit", "daemon.http.event", "daemon.http.stats")
	_, tdigest, err := trig.finalSnapshot(rc)
	if err != nil {
		return err
	}
	rc.check("traced = untraced", tdigest == digest, "traced digest %s, untraced %s", tdigest, digest)
	if err := replayIngestWAL(rc, trig.gcfg, trig.walPath, filepath.Join(dir, "replay.log"), traced.bodies); err != nil {
		return err
	}

	drive := tsw.wall
	rc.putOverhead(m.sw, tsw)
	for _, route := range []string{"submit", "event", "stats"} {
		s := tr.sum("daemon.http." + route)
		rc.put("daemon.http."+route+".mean_us", s.meanUs())
		rc.put("daemon.http."+route+".share", s.busy.Seconds()/drive.Seconds())
	}
	var out time.Duration
	for _, d := range outside {
		out += d
	}
	rc.put("http.client_overhead_us", ratio(out.Seconds()*1e6, float64(len(outside))))
	rc.put("http.client_overhead.share", out.Seconds()/drive.Seconds())
	dec := tr.sum("json.decode")
	rc.put("json.decode.mean_us", dec.meanUs())
	rc.put("json.decode.share", dec.busy.Seconds()/drive.Seconds())
	busy := putGridLayers(rc, drive, "submit", "complete", "admit") + dec.busy
	rc.put("trace.layer_sum_frac", busy.Seconds()/drive.Seconds())
	rc.put("daemon.stats.mean_ms", tr.sum("daemon.stats").meanUs()/1e3)
	rc.putN("daemon.place_p99_ms", quantile(millis(plain.submits), 0.99), len(plain.submits))
	if err := putKernels(rc, liveInstances(final)); err != nil {
		return err
	}
	return errors.Join(trig.close(), rig.close())
}

// liveInstances is the live instance of g, for the kernel replays.
func liveInstances(g *daemon.Grid) []*etc.Instance {
	in, _ := g.LiveInstance()
	return []*etc.Instance{in}
}
