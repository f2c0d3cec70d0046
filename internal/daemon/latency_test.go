package daemon

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/rng"
)

// summarize is the sort-based oracle for latHist: count, mean and the
// p50/p99 order statistics (rank int(p·(n-1))) of seconds samples, in
// milliseconds.
func summarize(samples []float64) LatStats {
	s := LatStats{Count: len(samples)}
	if s.Count == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i] * 1e3
	}
	s.P50Ms = q(0.50)
	s.P99Ms = q(0.99)
	s.MeanMs = sum / float64(len(sorted)) * 1e3
	return s
}

// TestLatHistMatchesSortOracle checks the histogram against summarize on
// distributions from nanoseconds to hours: exact count, mean to float
// rounding, and percentiles within the stated 1/64 relative error.
func TestLatHistMatchesSortOracle(t *testing.T) {
	r := rng.New(3)
	dists := map[string]func(i int) time.Duration{
		"log-uniform 1ns..10s": func(int) time.Duration { return time.Duration(math.Exp(r.Float64() * math.Log(1e10))) },
		"constant":             func(int) time.Duration { return 1234 * time.Microsecond },
		"small exact":          func(i int) time.Duration { return time.Duration(i % 200) },
		"hours":                func(i int) time.Duration { return 20*time.Hour + time.Duration(i)*time.Second },
		"heavy tail": func(int) time.Duration {
			if r.Bool(0.02) {
				return time.Duration(500+r.Intn(500)) * time.Millisecond
			}
			return time.Duration(1000+r.Intn(1000)) * time.Microsecond
		},
	}
	within := func(got, want float64) bool {
		return math.Abs(got-want) <= want/64+1e-12
	}
	for name, draw := range dists {
		for _, n := range []int{0, 1, 2, 99, 100, 5000} {
			var h latHist
			secs := make([]float64, n)
			for i := range secs {
				d := draw(i)
				h.record(d)
				secs[i] = d.Seconds()
			}
			got, want := h.stats(), summarize(secs)
			if got.Count != want.Count ||
				math.Abs(got.MeanMs-want.MeanMs) > 1e-9*want.MeanMs ||
				!within(got.P50Ms, want.P50Ms) || !within(got.P99Ms, want.P99Ms) {
				t.Fatalf("%s, n=%d: histogram %+v, oracle %+v", name, n, got, want)
			}
		}
	}
}

// TestLatencyHistoryFlat places 2^20 jobs through the daemon's admission
// path: the heap and the cost of StatsNow (its wall time and the bytes
// it allocates) must not grow with the number of latency samples kept.
func TestLatencyHistoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("places a million jobs")
	}
	cfg := testConfig()
	cfg.JobCap = 256
	cfg.LSIters = 0
	d, err := NewDaemon(ServerConfig{Grid: cfg})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(e eventlog.Event) {
		if _, err := d.applyLocked(e); err != nil {
			t.Fatal(err)
		}
	}
	const window = 64
	var done uint64
	place := func(jobs int) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for ; jobs > 0; jobs -= window {
			for i := 0; i < window; i++ {
				apply(eventlog.Event{Type: eventlog.Submit, Job: d.g.NextJobID(), Base: 1})
			}
			apply(eventlog.Event{Type: eventlog.Admit})
			for i := 0; i < window; i++ {
				done++
				apply(eventlog.Event{Type: eventlog.Complete, Job: done})
			}
		}
	}
	type cost struct {
		heap, statsBytes uint64
		statsWall        time.Duration
	}
	measure := func() cost {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c := cost{heap: m0.HeapAlloc, statsWall: time.Hour}
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			d.StatsNow()
			c.statsWall = min(c.statsWall, time.Since(t0))
		}
		runtime.ReadMemStats(&m1)
		c.statsBytes = (m1.TotalAlloc - m0.TotalAlloc) / 5
		return c
	}

	d.mu.Lock()
	apply(eventlog.Event{Type: eventlog.Join, Mach: d.g.NextMachID(), Mult: 1})
	d.mu.Unlock()
	place(1 << 14)
	small := measure()
	place(1<<20 - 1<<14)
	large := measure()
	if st := d.StatsNow(); st.Latency.Count != 1<<20 {
		t.Fatalf("recorded %d placement samples, want %d", st.Latency.Count, 1<<20)
	}
	t.Logf("2^14 samples: %+v; 2^20 samples: %+v", small, large)
	if large.heap > small.heap+1<<20 {
		t.Fatalf("heap grew from %d to %d bytes with the latency history", small.heap, large.heap)
	}
	if large.statsBytes > small.statsBytes+4<<10 {
		t.Fatalf("StatsNow allocates %d bytes at 2^20 samples, %d at 2^14", large.statsBytes, small.statsBytes)
	}
	if large.statsWall > 10*small.statsWall+time.Millisecond {
		t.Fatalf("StatsNow takes %v at 2^20 samples, %v at 2^14", large.statsWall, small.statsWall)
	}
}
