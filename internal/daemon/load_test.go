package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/retry"
	"gridcma/internal/rng"
)

// loadConfig parameterises the load driver: a client that drives a
// running daemon over its real HTTP API with a deterministic open-loop
// workload, keeping roughly LiveTarget jobs in flight. Job bases are
// uniform in [1, 8], machine multipliers in [1, 3].
type loadConfig struct {
	Jobs       int // total submissions
	Machines   int // machines joined before the load starts
	LiveTarget int // in-flight jobs; the oldest beyond it are completed
	Batch      int // submissions per POST /submit
	// ColdEvery samples GET /coldcheck every N batches (0 disables).
	ColdEvery int
	// FailEvery triggers a machine-failure storm every N batches: one
	// random alive machine fails mid-load and a replacement joins (when
	// the grid has slot headroom; otherwise the fleet stays shrunk until
	// the next admission recycles the slot). 0 disables storms.
	FailEvery int
	Seed      uint64
}

// loadResult is what one driven run observed.
type loadResult struct {
	Stats       Stats     // GET /stats after the final admission
	Final       ColdCheck // GET /coldcheck after the final admission
	ColdSamples int
	ColdMeanMs  float64
	Storms      int
	Rejected429 uint64 // submissions the daemon pushed back on, each retried
	Elapsed     time.Duration
}

// loadClient is a thin JSON client over the daemon API.
type loadClient struct {
	t      *testing.T
	base   string
	rej429 uint64
}

// errBackpressure tags a 429 so the retry policy keeps waiting it out.
var errBackpressure = errors.New("daemon: backpressure (429)")

// post sends one JSON request, honouring backpressure through the shared
// retry policy: a 429 is waited out — the advertised Retry-After, capped
// by Policy.Max so the driver keeps pace with short admission windows,
// 100ms when the server names no delay — and retried without bound;
// every other failure is permanent. The well-behaved-client half of the
// bounded-queue contract.
func (lc *loadClient) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	p := retry.Policy{
		MaxAttempts: -1, // backpressure can outlast any fixed budget
		Initial:     100 * time.Millisecond,
		Max:         250 * time.Millisecond,
		Jitter:      -1, // keep the driver's pacing deterministic
	}
	return p.Do(context.Background(), func(int) error {
		resp, err := http.Post(lc.base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return retry.Permanent(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			lc.rej429++
			wait, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After"))
			if !ok || wait <= 0 {
				wait = 100 * time.Millisecond
			}
			return retry.After(errBackpressure, wait)
		}
		if resp.StatusCode != http.StatusOK {
			return retry.Permanent(fmt.Errorf("POST %s: %s", path, resp.Status))
		}
		if out == nil {
			return nil
		}
		return retry.Permanent(json.NewDecoder(resp.Body).Decode(out))
	})
}

func (lc *loadClient) mustPost(path string, body, out any) {
	lc.t.Helper()
	if err := lc.post(path, body, out); err != nil {
		lc.t.Fatal(err)
	}
}

// runLoad drives the daemon at base: joins machines, streams cfg.Jobs
// submissions in batches while completing the oldest jobs beyond the
// live target, injects storms and samples cold re-solves along the way,
// then closes the final window so every submission is placed.
func runLoad(t *testing.T, base string, cfg loadConfig) loadResult {
	t.Helper()
	lc := &loadClient{t: t, base: base}
	r := rng.New(cfg.Seed)
	var res loadResult

	// Machines join first, as one batch of events; the applied events
	// carry the assigned ids, which the storm injector draws victims from.
	joins := make([]map[string]any, cfg.Machines)
	for i := range joins {
		joins[i] = map[string]any{"type": "join", "mult": float64(1 + r.Intn(3))}
	}
	var joined []eventlog.Event
	lc.mustPost("/event", joins, &joined)
	alive := make([]uint64, 0, len(joined))
	for _, e := range joined {
		alive = append(alive, e.Mach)
	}

	t0 := time.Now()
	oldest := uint64(1) // next job id to complete
	coldWall := 0.0
	for submitted, batchNo := 0, 1; submitted < cfg.Jobs; batchNo++ {
		bases := make([]float64, min(cfg.Batch, cfg.Jobs-submitted))
		for i := range bases {
			bases[i] = float64(1 + r.Intn(8))
		}
		lc.mustPost("/submit", SubmitRequest{Bases: bases}, nil)
		submitted += len(bases)

		// Trim the live set back to target: complete the oldest jobs.
		if over := submitted - int(oldest-1) - cfg.LiveTarget; over > 0 {
			completes := make([]map[string]any, over)
			for i := range completes {
				completes[i] = map[string]any{"type": "complete", "job": oldest}
				oldest++
			}
			lc.mustPost("/event", completes, nil)
		}

		// Machine-failure storm: one random alive machine fails, a
		// replacement joins. A join refusal (no slot headroom until the
		// next admission recycles the departed slot) shrinks the fleet —
		// degraded capacity is part of what the storm exercises.
		if cfg.FailEvery > 0 && batchNo%cfg.FailEvery == 0 && len(alive) > 1 {
			k := r.Intn(len(alive))
			lc.mustPost("/event", []map[string]any{{"type": "fail", "mach": alive[k]}}, nil)
			alive = append(alive[:k], alive[k+1:]...)
			var rj []eventlog.Event
			if err := lc.post("/event", []map[string]any{
				{"type": "join", "mult": float64(1 + r.Intn(3))},
			}, &rj); err == nil && len(rj) == 1 {
				alive = append(alive, rj[0].Mach)
			}
			res.Storms++
		}

		if cfg.ColdEvery > 0 && batchNo%cfg.ColdEvery == 0 {
			var cc ColdCheck
			getJSON(t, base+"/coldcheck", &cc)
			if cc.Jobs > 0 {
				coldWall += cc.WallMs
				res.ColdSamples++
			}
		}
	}
	// Drain: close the final window so every submission is placed.
	lc.mustPost("/admit", struct{}{}, nil)
	res.Elapsed = time.Since(t0)

	getJSON(t, base+"/coldcheck", &res.Final)
	getJSON(t, base+"/stats", &res.Stats)
	if res.ColdSamples > 0 {
		res.ColdMeanMs = coldWall / float64(res.ColdSamples)
	}
	res.Rejected429 = lc.rej429
	return res
}

// checkPlacedAll fails unless every submission of the run was placed.
func checkPlacedAll(t *testing.T, cfg loadConfig, res loadResult) {
	t.Helper()
	if res.Stats.Counters.Placed < uint64(cfg.Jobs) {
		t.Fatalf("placed %d of %d submissions", res.Stats.Counters.Placed, cfg.Jobs)
	}
}

// TestRunLoadSmall runs the load driver end to end against in-process
// daemons: real HTTP, thousands of submissions, steady-state
// completions, cold sampling. The gridd-grid case is the CI budget (5000
// jobs on 16 machines, 256 live, batches of 128) against the grid and
// admission threshold gridd serves with its flag defaults, with 1024
// initial job slots. The final snapshot must restore to a grid that
// keeps every invariant.
func TestRunLoadSmall(t *testing.T) {
	small := ServerConfig{Grid: testConfig(), AdmitPending: 32}
	small.Grid.JobCap = 256
	gridd := ServerConfig{Grid: griddConfig(), AdmitPending: 256}
	gridd.Grid.JobCap = 1024
	for _, tc := range []struct {
		name string
		cfg  ServerConfig
		load loadConfig
	}{
		{"test-grid", small, loadConfig{Jobs: 3000, Machines: 8, LiveTarget: 128, Batch: 64, ColdEvery: 10, Seed: 5}},
		{"gridd-grid", gridd, loadConfig{Jobs: 5000, Machines: 16, LiveTarget: 256, Batch: 128, ColdEvery: 25, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newTestDaemon(t, tc.cfg)
			res := runLoad(t, srv.URL, tc.load)
			checkPlacedAll(t, tc.load, res)
			lat := res.Stats.Latency
			if lat.P50Ms <= 0 || lat.P99Ms < lat.P50Ms {
				t.Fatalf("latency percentiles p50=%v p99=%v", lat.P50Ms, lat.P99Ms)
			}
			if res.ColdSamples == 0 || res.ColdMeanMs <= 0 {
				t.Fatalf("no cold samples in %+v", res)
			}
			if res.Final.WarmMakespan <= 0 || res.Final.ColdMakespan <= 0 {
				t.Fatalf("missing quality columns in %+v", res.Final)
			}
			var snap Snapshot
			getJSON(t, srv.URL+"/snapshot", &snap)
			g, err := Restore(&snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f jobs/s, p50 %.2fms p99 %.2fms, warm admit %.3fms, cold %.3fms, makespan warm/cold %.3f",
				float64(tc.load.Jobs)/res.Elapsed.Seconds(), lat.P50Ms, lat.P99Ms,
				res.Stats.AdmitWall.MeanMs, res.ColdMeanMs, res.Final.WarmMakespan/res.Final.ColdMakespan)
		})
	}
}

// TestRunLoadWithStormsAndBackpressure drives a daemon with a bounded
// pending queue while machine-failure storms hit every few batches: the
// client must ride out 429s via Retry-After and still place every
// submission.
func TestRunLoadWithStormsAndBackpressure(t *testing.T) {
	cfg := ServerConfig{Grid: testConfig(), AdmitPending: 24, MaxPending: 48, Window: 20 * time.Millisecond}
	cfg.Grid.JobCap = 256
	_, srv := newTestDaemon(t, cfg)

	lcfg := loadConfig{Jobs: 1200, Machines: 6, LiveTarget: 32, Batch: 16, Seed: 9, FailEvery: 5}
	res := runLoad(t, srv.URL, lcfg)
	checkPlacedAll(t, lcfg, res)
	if res.Storms == 0 {
		t.Fatal("no storms injected despite FailEvery")
	}
	t.Logf("stormy load: %.0f jobs/s, %d storms, %d backpressure retries",
		float64(lcfg.Jobs)/res.Elapsed.Seconds(), res.Storms, res.Rejected429)
}
