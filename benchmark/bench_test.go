package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridcma"
	"gridcma/internal/etc"
)

func TestLowerBoundHandComputed(t *testing.T) {
	in := etc.New("hand", 3, 2)
	for j, row := range [][]float64{{2, 4}, {3, 1}, {5, 6}} {
		for m, v := range row {
			in.Set(j, m, v)
		}
	}
	in.Finalize()
	// Fastest machines: 2, 1, 5. The slowest job's best (5) beats the
	// spread-out work (2+1+5)/2 = 4.
	if got := lowerBound(in); got != 5 {
		t.Errorf("lower bound = %v, want 5", got)
	}
	// Machine 0 ready at 1: job 2 now ends at min(1+5, 0+6) = 6 at best;
	// the work term is (8+1)/2 = 4.5 and the last machine is ready at 1.
	in.Ready = []float64{1, 0}
	if got := lowerBound(in); got != 6 {
		t.Errorf("lower bound with ready times = %v, want 6", got)
	}
	// Equal jobs: the spread-out work (3*4/2 = 6) binds.
	for j := 0; j < 3; j++ {
		in.Set(j, 0, 4)
		in.Set(j, 1, 4)
	}
	in.Ready = []float64{0, 0}
	if got := lowerBound(in); got != 6 {
		t.Errorf("lower bound of equal jobs = %v, want 6", got)
	}
}

func TestLowerBoundBelowMCT(t *testing.T) {
	mct, err := gridcma.Heuristic("mct")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range gridcma.BenchmarkInstanceNames() {
		in, err := gridcma.BenchmarkInstance(name)
		if err != nil {
			t.Fatal(err)
		}
		mk, _, _ := gridcma.Evaluate(in, mct(in))
		if lb := lowerBound(in); !(lb > 0 && lb <= mk) {
			t.Errorf("%s: lower bound %v, MCT makespan %v", name, lb, mk)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "solve_s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"faster", lower, steady, scale(steady, 0.8), "better"},
		{"slower", lower, steady, scale(steady, 1.2), "worse"},
		{"same", lower, steady, steady, "within bound"},
		{"noisy parent", lower, []float64{1, 2, 1, 2, 1, 2, 1, 2}, []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, "unresolved"},
		{"higher is better", metricDef{Better: "higher", Bound: 0.10}, steady, scale(steady, 1.2), "better"},
		{"no bound", metricDef{Better: "lower"}, steady, steady, "no bound"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if bj.EndToEnd[i] != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, bj.EndToEnd[i], d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if p := bj.PerLayer[i]; p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, p, d)
		}
	}
}

// timeUnits are the units of the per-layer metrics that every workload
// must measure: a time that read 0 on every run would tell nothing.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// TestQuickRun runs each workload on small inputs with the traced phase,
// one command per workload as BENCHMARK.json's command runs them, and
// checks that every output check passes, that every metric BENCHMARK.json
// names is emitted with its unit, and that on batch-braun and gridd-repl
// the traced layers account for the wall time. Full runs read 0.91-0.92
// and 0.96-1.05; runs of a few seconds on a VM whose host steals its CPU
// at random read up to a tenth either side of that, so the test allows a
// fifth. Without local search or the digest the sums fall below a third.
func TestQuickRun(t *testing.T) {
	bj := readBenchmarkJSON(t)
	emitted := map[string]int{} // per-layer metric -> workloads that emit it
	for _, w := range workloads {
		r := quickRun(t, w.name)
		if !r.correct() || len(r.Checks) == 0 {
			t.Errorf("%s: error %q, checks %+v", r.Workload, r.Error, r.Checks)
		}
		got := map[string]metric{}
		for _, m := range r.Metrics {
			got[m.Name] = m
		}
		for _, d := range bj.EndToEnd {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", r.Workload, d.Name, m, d.Unit)
			}
		}
		for _, d := range bj.PerLayer {
			m, ok := got[d.Name]
			if ok {
				emitted[d.Name]++
				if m.Unit != d.Unit {
					t.Errorf("%s: per-layer metric %s in %s, want %s", r.Workload, d.Name, m.Unit, d.Unit)
				}
			}
			if timeUnits[d.Unit] && !(ok && m.Value > 0) {
				t.Errorf("%s: per-layer timing %s = %+v, want a positive value", r.Workload, d.Name, m)
			}
		}
		if r.Workload == "batch-braun" || r.Workload == "gridd-repl" {
			if f := got["trace.layer_sum_frac"].Value; !raceEnabled && (f < 0.8 || f > 1.2) {
				t.Errorf("%s: traced layers cover %.3f of the wall time, want 0.8 to 1.2", r.Workload, f)
			}
		}
		_, digest := got["daemon.grid.digest.share"]
		if want := r.Workload == "gridd-repl"; digest != want {
			t.Errorf("%s: daemon.grid.digest.share reported %v, want %v", r.Workload, digest, want)
		}
	}
	for _, d := range bj.PerLayer {
		if emitted[d.Name] == 0 {
			t.Errorf("per-layer metric %s: no workload emitted it", d.Name)
		}
	}
}

// quickRun runs one workload with -quick -trace 1, checks its closing
// line and spans file, and returns its result.
func quickRun(t *testing.T, workload string) result {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	spans := filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-quick", "-trace", "1", "-seconds", "0.05", "-out", out, "-spans", spans, "-workdir", dir}
	if code := benchMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit code %d\n%s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 || len(sum.Metrics) != len(perLayer) {
		t.Errorf("%s: summary: correct %v attempted %d failed %d with %d metrics", workload, sum.Correct, sum.Attempted, sum.Failed, len(sum.Metrics))
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("%s: spans file: %v", workload, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("%s: %d results, want 1", workload, len(rep.Results))
	}
	return rep.Results[0]
}
