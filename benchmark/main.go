// Command benchmark is the repository's benchmark: five workloads that
// drive the cMA engines, the gridd daemon, its replication and the
// distributed island engine end to end, check that their outputs are
// correct, and report every metric by name and unit. With -trace 1 a
// separate traced phase wraps the public interfaces each workload calls
// and breaks the workload down into its layers. README.md describes the
// workloads and the metrics.
//
// It is its own module (the parent module is replaced from ../), so run it
// from this directory, or through run.sh from the repository root, which
// keeps every build artefact under .bench_build/:
//
//	go run .                                    # all five workloads, 10 s each
//	go run . -workload gridd-repl -seed 3       # one workload
//	go run . -trace 1                           # add the traced phase
//	go run . -out a.json                        # also write the results as JSON
//	go run . -compare a1.json a2.json -- b1.json b2.json
//
// Every workload prints one "workload metric value unit" line per metric.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// -trace 1 the per-layer ones. The command exits non-zero when an output
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
	N     int     `json:"n,omitempty"` // sample count, where it is not obvious
}

// check counts the outcomes of one output check.
type check struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	Detail string `json:"detail,omitempty"` // the first failure
}

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []check  `json:"checks"`
	Metrics   []metric `json:"metrics"`
	Error     string   `json:"error,omitempty"`
}

func (r *result) correct() bool {
	if r.Error != "" {
		return false
	}
	for _, c := range r.Checks {
		if c.Failed > 0 {
			return false
		}
	}
	return true
}

// env is the environment header of a report.
type env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Quick      bool   `json:"quick,omitempty"`
}

// report is the -out document.
type report struct {
	Env     env      `json:"env"`
	Seconds float64  `json:"seconds"`
	Results []result `json:"results"`
}

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed    = fs.Uint64("seed", 1, "seed the workload inputs are generated from")
		secs    = fs.Float64("seconds", 10, "measured time per workload run")
		trace   = fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
		quick   = fs.Bool("quick", false, "small inputs (smoke tests)")
		out     = fs.String("out", "", "also write the results to this JSON file")
		spans   = fs.String("spans", filepath.Join(".bench_build", "spans.jsonl"), "where -trace 1 writes its spans")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "tmp"), "scratch directory for logs and snapshots")
		compare = fs.Bool("compare", false, "compare result files: -compare a.json... -- b.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if !(*secs > 0) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep := report{Env: environment(*quick), Seconds: *secs}
	var tracers []*tracer
	for _, w := range selected {
		res := result{Workload: w.name, Seed: *seed, Traced: *trace == 1}
		rc := &runCtx{
			seed:    *seed,
			seconds: *secs,
			trace:   *trace == 1,
			quick:   *quick,
			dir:     filepath.Join(dir, w.name),
			res:     &res,
		}
		if rc.trace {
			rc.tr = newTracer(w.name)
		}
		if err := os.MkdirAll(rc.dir, 0o755); err != nil {
			res.Error = err.Error()
		} else if err := w.run(rc); err != nil {
			res.Error = err.Error()
		}
		if rc.tr != nil {
			tracers = append(tracers, rc.tr)
		}
		printResult(stdout, stderr, &res)
		rep.Results = append(rep.Results, res)
	}

	ok := true
	if len(tracers) > 0 && *spans != "" {
		if err := writeSpansFile(*spans, tracers); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			ok = false
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing results:", err)
			ok = false
		}
	}
	line, correct := summary(rep.Results, *trace == 1)
	fmt.Fprintln(stdout, line)
	if !ok || !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want all, or one of %s)", name, workloadNames())
}

func environment(quick bool) env {
	e := env{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Quick:      quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// printResult prints one "workload metric value unit" line per metric,
// then any failed check or error.
func printResult(stdout, stderr io.Writer, r *result) {
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%s %s %s %s", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" (n=%d)", m.N)
		}
		fmt.Fprintln(stdout, line)
	}
	for _, c := range r.Checks {
		if c.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: check %q failed %d of %d times; first: %s\n",
				r.Workload, c.Name, c.Failed, c.Passed+c.Failed, c.Detail)
		}
	}
	if r.Error != "" {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", r.Workload, r.Error)
	}
}

// summary builds the closing JSON line. With one workload the metric keys
// are the bare names; with several they are "workload/name".
func summary(results []result, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var s struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	s.Correct = len(results) > 0
	s.Metrics = map[string]value{}
	for _, r := range results {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		key := func(name string) string {
			if len(results) == 1 {
				return name
			}
			return r.Workload + "/" + name
		}
		want, kind := endToEnd, kindE2E
		if traced {
			want, kind = perLayer, kindLayer
			// A layer that does not run in this workload reports 0.
			for _, d := range perLayer {
				s.Metrics[key(d.Name)] = value{0, d.Unit}
			}
		}
		for _, m := range r.Metrics {
			if m.Kind == kind {
				s.Metrics[key(m.Name)] = value{m.Value, m.Unit}
			}
		}
		for _, d := range want {
			if _, ok := s.Metrics[key(d.Name)]; !ok {
				s.Correct = false
			}
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	return string(b), s.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpansFile(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, tracers); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
