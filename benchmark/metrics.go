package main

import "fmt"

// metricDef describes one reported metric. The endToEnd and perLayer
// tables are the source of truth that BENCHMARK.json mirrors
// (bench_test.go checks that the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. Every workload emits every one of them
// from its untraced phase, and none is ever 0. Bound is the share of the
// parent's median by which a change may make the metric worse before it
// counts as a regression. The timings are CPU times (see cpuTime): the
// reference machine is a shared VM whose wall clock swings with the
// host's load far more than the CPU time of a fixed amount of work does.
// README.md gives the spreads behind each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"quality_gap", "ratio", "lower", 0.15},
	{"heap_mb", "MiB", "lower", 0.10},
}

// extras are end-to-end numbers that are printed and written to -out but
// not gated by BENCHMARK.json: the wall-clock timings, which swing with
// the host's load, and numbers that only some workloads have. -compare
// still judges them against these bounds.
var extras = []metricDef{
	{"solve_s", "s", "lower", 0.10},
	{"step_p50_ms", "ms", "lower", 0.10},
	{"step_p90_ms", "ms", "lower", 0.10},
	{"place_p50_ms", "ms", "lower", 0.10}, // gridd-ingest's steps: one /submit places its jobs
	{"place_p90_ms", "ms", "lower", 0.10},
	{"evals_per_s", "1/s", "higher", 0.10},
	{"jobs_per_s", "jobs/s", "higher", 0.10},
	{"events_per_s", "events/s", "higher", 0.10},
	{"stats_p50_ms", "ms", "lower", 0.10},
	{"error_rate", "fraction", "lower", 0},
}

// perLayer are the traced phase's numbers that BENCHMARK.json lists.
// Every traced run emits all of them. The timings (schedule kernels) are
// measured on every workload's own instances; a layer that runs on some
// workloads only is reported as a count, a ratio or a share of the
// traced wall time, and as 0 where it does not run.
var perLayer = []metricDef{
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"trace.layer_sum_frac", "fraction", "higher", 0},
	{"schedule.probe_move.mean_ns", "ns", "lower", 0},
	{"schedule.sweep_move.mean_ns", "ns", "lower", 0},
	{"schedule.cached_swap_scan.mean_ns", "ns", "lower", 0},

	{"cma.evals", "count", "lower", 0},
	{"cma.self.share", "fraction", "lower", 0},
	{"cma.par.speedup", "ratio", "higher", 0},
	{"cma.par.busy_frac", "fraction", "higher", 0},
	{"localsearch.improve.n", "count", "lower", 0},
	{"localsearch.improve.share", "fraction", "lower", 0},
	{"operators.select.share", "fraction", "lower", 0},
	{"operators.crossover.share", "fraction", "lower", 0},
	{"operators.mutate.share", "fraction", "lower", 0},
	{"heuristics.seed.share", "fraction", "lower", 0},

	{"daemon.http.submit.share", "fraction", "lower", 0},
	{"daemon.http.event.share", "fraction", "lower", 0},
	{"daemon.http.stats.share", "fraction", "lower", 0},
	{"http.client_overhead.share", "fraction", "lower", 0},
	{"json.decode.share", "fraction", "lower", 0},
	{"daemon.grid.apply.submit.share", "fraction", "lower", 0},
	{"daemon.grid.apply.complete.share", "fraction", "lower", 0},
	{"daemon.grid.apply.admit.share", "fraction", "lower", 0},
	{"daemon.grid.apply.join.share", "fraction", "lower", 0},
	{"daemon.grid.apply.leave.share", "fraction", "lower", 0},
	{"daemon.grid.digest.n", "count", "lower", 0},
	{"daemon.grid.digest.share", "fraction", "lower", 0},
	{"eventlog.append.share", "fraction", "lower", 0},
	{"eventlog.flush.share", "fraction", "lower", 0},
	{"daemon.admit.placed_per_window", "ratio", "higher", 0},
	{"daemon.repl.events_per_pull", "ratio", "higher", 0},

	{"dist.segment.n", "count", "lower", 0},
	{"dist.busy_frac", "fraction", "higher", 0},
	{"transport.wire.share", "fraction", "lower", 0},
}

// layerDetail are the traced phase's absolute per-layer numbers. They
// are printed and written to -out by the workloads whose layers run, and
// are not listed in BENCHMARK.json, whose per-layer metrics every
// workload must report.
var layerDetail = []metricDef{
	{"cma.self_s", "s", "lower", 0},
	{"etc.generate_s", "s", "lower", 0},
	{"localsearch.improve.busy_s", "s", "lower", 0},
	{"localsearch.improve.mean_us", "us", "lower", 0},
	{"operators.select.busy_s", "s", "lower", 0},
	{"operators.crossover.busy_s", "s", "lower", 0},
	{"operators.mutate.busy_s", "s", "lower", 0},
	{"heuristics.seed.busy_s", "s", "lower", 0},

	{"daemon.http.submit.mean_us", "us", "lower", 0},
	{"daemon.http.event.mean_us", "us", "lower", 0},
	{"daemon.http.stats.mean_us", "us", "lower", 0},
	{"http.client_overhead_us", "us", "lower", 0},
	{"json.decode.mean_us", "us", "lower", 0},
	{"daemon.grid.apply.submit.n", "count", "lower", 0},
	{"daemon.grid.apply.submit.mean_us", "us", "lower", 0},
	{"daemon.grid.apply.complete.n", "count", "lower", 0},
	{"daemon.grid.apply.complete.mean_us", "us", "lower", 0},
	{"daemon.grid.apply.admit.n", "count", "lower", 0},
	{"daemon.grid.apply.admit.mean_us", "us", "lower", 0},
	{"daemon.grid.apply.join.mean_us", "us", "lower", 0},
	{"daemon.grid.apply.leave.mean_us", "us", "lower", 0},
	{"daemon.grid.digest.mean_us", "us", "lower", 0},
	{"eventlog.append.mean_us", "us", "lower", 0},
	{"eventlog.flush.mean_us", "us", "lower", 0},
	{"daemon.stats.mean_ms", "ms", "lower", 0},
	{"daemon.place_p99_ms", "ms", "lower", 0},

	{"daemon.repl.serve.mean_us", "us", "lower", 0},
	{"daemon.repl.apply.mean_us", "us", "lower", 0},
	{"daemon.repl.lag_p50_ms", "ms", "lower", 0},
	{"daemon.repl.lag_p99_ms", "ms", "lower", 0},
	{"daemon.repl.catchup_ms", "ms", "lower", 0},
	{"transport.call.mean_us", "us", "lower", 0},
	{"transport.wire.mean_us", "us", "lower", 0},

	{"dist.segment.mean_ms", "ms", "lower", 0},
	{"dist.segment.busy_s", "s", "lower", 0},
	{"transport.call.mean_ms", "ms", "lower", 0},
	{"transport.wire.mean_ms", "ms", "lower", 0},
}

// Metric kinds.
const (
	kindE2E    = "end_to_end"
	kindExtra  = "extra"
	kindLayer  = "per_layer"
	kindDetail = "layer_detail"
)

type metricEntry struct {
	def  metricDef
	kind string
}

var metricIndex = func() map[string]metricEntry {
	idx := map[string]metricEntry{}
	add := func(kind string, defs []metricDef) {
		for _, d := range defs {
			if _, dup := idx[d.Name]; dup {
				panic(fmt.Sprintf("benchmark: metric %q defined twice", d.Name))
			}
			idx[d.Name] = metricEntry{d, kind}
		}
	}
	add(kindE2E, endToEnd)
	add(kindExtra, extras)
	add(kindLayer, perLayer)
	add(kindDetail, layerDetail)
	return idx
}()

// allMetrics lists every table in report order.
var allMetrics = [][]metricDef{endToEnd, extras, perLayer, layerDetail}

// lookup returns a metric's definition and kind; an unknown name is a bug.
func lookup(name string) metricEntry {
	e, ok := metricIndex[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: unknown metric %q", name))
	}
	return e
}
