package experiments

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"bytes"
	"strings"

	"gridcma"
	"gridcma/internal/run"
)

// newAlg builds a registry algorithm, failing the test on error.
func newAlg(t *testing.T, name string) Algorithm {
	t.Helper()
	a, err := gridcma.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// noErr fails the test on err and passes v through.
func noErr[T any](t *testing.T) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// The package's tests reproduce the paper's full table/figure pipeline at
// reduced budgets — minutes of engine time. They are part of the normal
// suite but skipped wholesale under -short, which the CI race job uses:
// the race detector's overhead on this volume of pure compute exceeds
// test timeouts without exercising any concurrency the engine packages'
// own race-run tests don't already cover.
func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		fmt.Println("skipping experiments reproduction tests in -short mode")
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny options keep the full-table tests fast; the qualitative shapes they
// assert are budget-robust.
func tinyOpts() Options {
	return Options{Budget: run.Budget{MaxIterations: 10}, Runs: 2, Seed: 1}
}

func TestInstancesAreBenchmarkShaped(t *testing.T) {
	names := gridcma.BenchmarkInstanceNames()
	if len(names) != 12 {
		t.Fatalf("%d instances", len(names))
	}
	for _, name := range names {
		in := Instance(name)
		if in.Jobs != 512 || in.Machs != 16 {
			t.Errorf("%s: %d×%d", in.Name, in.Jobs, in.Machs)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name, err)
		}
	}
	// Caching: same pointer back.
	if Instance("u_c_hihi.0") != Instance("u_c_hihi.0") {
		t.Error("instance cache broken")
	}
}

func TestInstanceUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Instance("u_x_nope.0")
}

func TestReferencesCoverAllInstances(t *testing.T) {
	refs := References()
	for _, name := range gridcma.BenchmarkInstanceNames() {
		r, ok := refs[name]
		if !ok {
			t.Fatalf("no reference for %s", name)
		}
		if r.BraunGAMakespan <= 0 || r.CMAMakespan <= 0 || r.LJFRSJFRFlowtime <= 0 ||
			r.CMAFlowtime <= 0 || r.StruggleGAFlowtime <= 0 {
			t.Errorf("%s: non-positive reference values: %+v", name, r)
		}
		// Published shape: cMA flowtime beats both LJFR-SJFR and Struggle.
		if r.CMAFlowtime >= r.LJFRSJFRFlowtime {
			t.Errorf("%s: published cMA flowtime should beat LJFR-SJFR", name)
		}
		if r.CMAFlowtime >= r.StruggleGAFlowtime {
			t.Errorf("%s: published cMA flowtime should beat Struggle GA", name)
		}
	}
}

func TestRepeatAggregates(t *testing.T) {
	o := Options{Budget: run.Budget{MaxIterations: 5}, Runs: 3, Seed: 9}
	s := noErr[Sample](t)(Repeat(newAlg(t, "cma"), Instance("u_c_lolo.0"), o))
	if len(s.Runs) != 3 {
		t.Fatalf("runs %d", len(s.Runs))
	}
	if s.Makespans.N != 3 {
		t.Fatal("summary over wrong n")
	}
	if s.BestMakespan != s.Makespans.Min {
		t.Error("best makespan must equal min")
	}
	if s.Algorithm != "cma" || s.Instance != "u_c_lolo.0" {
		t.Errorf("labels %q %q", s.Algorithm, s.Instance)
	}
}

func TestFairBudgetsEqualiseEvals(t *testing.T) {
	evals := 3700
	for _, name := range []string{"cma", "braun-ga", "ss-ga", "struggle-ga", "sa", "tabu"} {
		alg := newAlg(t, name)
		b := FairBudget(alg, evals)
		got := b.MaxIterations * evalsPerIteration(name)
		if got < evals/2 || got > evals {
			t.Errorf("%s: fair budget yields %d evals, want ≈%d", alg.Name(), got, evals)
		}
	}
}

// TestTablesStopOnCancelledContext: the fair budgets keep the options'
// context, so an iteration-bounded table under a cancelled context stops
// at once and reports the cancellation instead of running every instance
// to its budget.
func TestTablesStopOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Budget: run.Budget{MaxIterations: 300}.WithContext(ctx), Runs: 1, Seed: 1}
	for name, table := range map[string]func(Options) error{
		"table2":     func(o Options) error { _, err := Table2(o); return err },
		"robustness": func(o Options) error { _, err := Robustness(o); return err },
	} {
		start := time.Now()
		err := table(o)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want %v", name, err, context.Canceled)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: took %v under a cancelled context", name, d)
		}
	}
}

// TestFiguresStopOnCancelledContext: a figure traced under a cancelled
// context reports the cancellation instead of a series averaged over
// runs cut short after their first point.
func TestFiguresStopOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Budget: run.Budget{MaxIterations: 2000}.WithContext(ctx), Runs: 2, Seed: 1}
	for name, fig := range map[string]func(Options) ([]Series, error){
		"fig2": Figure2, "fig3": Figure3, "fig4": Figure4, "fig5": Figure5,
	} {
		start := time.Now()
		series, err := fig(o)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v with %d series, want %v", name, err, len(series), context.Canceled)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: took %v under a cancelled context", name, d)
		}
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	// The strongest, most budget-robust claim of the paper: cMA improves
	// hugely on LJFR-SJFR flowtime on every instance (22-90% published).
	rows := noErr[[]Table4Row](t)(Table4(tinyOpts()))
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CMA >= r.LJFRSJFR {
			t.Errorf("%s: cMA flowtime %v did not improve on LJFR-SJFR %v", r.Instance, r.CMA, r.LJFRSJFR)
		}
		if r.Delta <= 0 {
			t.Errorf("%s: delta %v", r.Instance, r.Delta)
		}
	}
}

func TestTable2StructureAndSanity(t *testing.T) {
	// Run only a subset of instances' worth of budget by reusing tiny
	// options; assert structure plus a weak sanity shape: measured
	// makespans positive and within 100x of each other.
	rows := noErr[[]Table2Row](t)(Table2(tinyOpts()))
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BraunGA <= 0 || r.CMA <= 0 {
			t.Errorf("%s: non-positive makespans", r.Instance)
		}
		if r.CMA > 100*r.BraunGA || r.BraunGA > 100*r.CMA {
			t.Errorf("%s: makespans wildly inconsistent: %v vs %v", r.Instance, r.BraunGA, r.CMA)
		}
		if r.PaperBraunGA == 0 || r.PaperCMA == 0 {
			t.Errorf("%s: missing paper values", r.Instance)
		}
	}
}

func TestTable5ShapeHolds(t *testing.T) {
	rows := noErr[[]Table5Row](t)(Table5(tinyOpts()))
	better := 0
	for _, r := range rows {
		if r.CMA < r.StruggleGA {
			better++
		}
	}
	// Published: cMA wins on all 12. Under a tiny budget we still expect
	// a clear majority.
	if better < 8 {
		t.Errorf("cMA beat StruggleGA on flowtime only %d/12 times", better)
	}
}

func TestRobustnessSmallRelStd(t *testing.T) {
	o := Options{Budget: run.Budget{MaxIterations: 15}, Runs: 4, Seed: 3}
	rows := noErr[[]RobustnessRow](t)(Robustness(o))
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The paper reports ~1%; allow generous slack at tiny budgets.
		if r.RelStd > 0.10 {
			t.Errorf("%s: relative std %.2f%% too large", r.Instance, 100*r.RelStd)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[string]string{
		"population height":          "5",
		"population width":           "5",
		"nb solutions to recombine":  "3",
		"nb recombinations":          "25",
		"nb mutations":               "12",
		"start choice":               "LJFR-SJFR",
		"neighborhood pattern":       "C9",
		"recombination order":        "FLS",
		"mutation order":             "NRS",
		"recombine choice":           "One-Point",
		"recombine selection":        "3-Tournament",
		"mutate choice":              "Rebalance",
		"local search choice":        "LMCTS",
		"nb local search iterations": "5",
		"add only if better":         "true",
		"lambda":                     "0.75",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Parameter] = r.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Table1[%s] = %q, want %q", k, got[k], v)
		}
	}
}

func TestFigure2LMCTSWins(t *testing.T) {
	o := Options{Budget: run.Budget{MaxIterations: 12}, Runs: 2, Seed: 4}
	series := noErr[[]Series](t)(Figure2(o))
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	byLabel := map[string]Series{}
	for _, s := range series {
		byLabel[s.Label] = s
	}
	lmcts, lm := byLabel["LMCTS"], byLabel["LM"]
	if lmcts.Final() >= lm.Final() {
		t.Errorf("LMCTS final %v should beat LM %v (paper Fig. 2)", lmcts.Final(), lm.Final())
	}
}

func TestFigure3PanmicticNotBest(t *testing.T) {
	o := Options{Budget: run.Budget{MaxIterations: 12}, Runs: 2, Seed: 5}
	series := noErr[[]Series](t)(Figure3(o))
	if len(series) != 5 {
		t.Fatalf("%d series", len(series))
	}
	var pan, best float64
	first := true
	for _, s := range series {
		if s.Label == "Panmictic" {
			pan = s.Final()
			continue
		}
		if first || s.Final() < best {
			best = s.Final()
			first = false
		}
	}
	if pan < best {
		t.Errorf("panmixia (%v) should not beat the best structured pattern (%v)", pan, best)
	}
}

func TestFigure4And5RunAndAreMonotone(t *testing.T) {
	o := Options{Budget: run.Budget{MaxIterations: 8}, Runs: 1, Seed: 6}
	figs := map[string][]Series{"fig4": noErr[[]Series](t)(Figure4(o)), "fig5": noErr[[]Series](t)(Figure5(o))}
	for name, series := range figs {
		if len(series) != 3 {
			t.Fatalf("%s: %d series", name, len(series))
		}
		for _, s := range series {
			if len(s.Points) != 9 { // initial sample + 8 iterations
				t.Errorf("%s/%s: %d points", name, s.Label, len(s.Points))
			}
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Makespan > s.Points[i-1].Makespan+1e-9 {
					t.Errorf("%s/%s: best makespan regressed", name, s.Label)
					break
				}
			}
		}
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", Points: []Point{{Iteration: 0, Makespan: 10}, {Iteration: 1, Makespan: 8}}}
	if s.Final() != 8 {
		t.Error("Final")
	}
	if (Series{}).Final() != 0 {
		t.Error("empty series")
	}
}

func TestFormattingAndCSV(t *testing.T) {
	o := Options{Budget: run.Budget{MaxIterations: 3}, Runs: 1, Seed: 7}
	h, cells := Table4Cells(noErr[[]Table4Row](t)(Table4(o)))
	txt := FormatTable(h, cells)
	if !strings.Contains(txt, "u_c_hihi.0") || !strings.Contains(txt, "Δ%") {
		t.Error("table text incomplete")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, h, cells); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 13 {
		t.Errorf("%d csv lines, want header+12", len(lines))
	}

	// All the remaining cell builders produce consistent widths.
	h2, c2 := Table2Cells(noErr[[]Table2Row](t)(Table2(o)))
	checkCells(t, h2, c2)
	h3, c3 := Table3Cells(noErr[[]Table3Row](t)(Table3(o)))
	checkCells(t, h3, c3)
	h5, c5 := Table5Cells(noErr[[]Table5Row](t)(Table5(o)))
	checkCells(t, h5, c5)
	hr, cr := RobustnessCells(noErr[[]RobustnessRow](t)(Robustness(o)))
	checkCells(t, hr, cr)
	h1, c1 := Table1Cells(Table1())
	checkCells(t, h1, c1)
	fig := noErr[[]Series](t)(Figure5(Options{Budget: run.Budget{MaxIterations: 2}, Runs: 1, Seed: 8}))
	hs, cs := SeriesCells(fig)
	checkCells(t, hs, cs)
	hss, css := SeriesSummaryCells(fig)
	checkCells(t, hss, css)
}

func checkCells(t *testing.T, headers []string, rows [][]string) {
	t.Helper()
	if len(rows) == 0 {
		t.Error("no rows")
	}
	for _, r := range rows {
		if len(r) != len(headers) {
			t.Fatalf("row width %d != header width %d", len(r), len(headers))
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Runs: 1}).Validate(); err == nil {
		t.Error("unbounded budget accepted")
	}
	if err := (Options{Budget: run.Budget{MaxIterations: 1}, Runs: 0}).Validate(); err == nil {
		t.Error("zero runs accepted")
	}
	if err := tinyOpts().Validate(); err != nil {
		t.Error(err)
	}
	if err := Full().Validate(); err != nil {
		t.Error(err)
	}
}

// Every runner refuses bad options and specs with an error before any
// run, instead of panicking.
func TestRunnersRejectBadInput(t *testing.T) {
	bad := Options{Budget: run.Budget{MaxIterations: 1}, Runs: 0}
	if _, err := Repeat(newAlg(t, "cma"), Instance("u_c_lolo.0"), bad); err == nil {
		t.Error("Repeat: Runs = 0 accepted")
	}
	if _, err := Frontier(tinyOpts(), []string{"bogus"}); err == nil {
		t.Error("Frontier: bogus spec accepted")
	}
	if _, err := Frontier(bad, nil); err == nil {
		t.Error("Frontier: Runs = 0 accepted")
	}
	unbounded := Options{Runs: 1}
	for name, run := range map[string]func(Options) error{
		"Table2":     func(o Options) error { _, err := Table2(o); return err },
		"Table3":     func(o Options) error { _, err := Table3(o); return err },
		"Table4":     func(o Options) error { _, err := Table4(o); return err },
		"Table5":     func(o Options) error { _, err := Table5(o); return err },
		"Robustness": func(o Options) error { _, err := Robustness(o); return err },
		"Figure2":    func(o Options) error { _, err := Figure2(o); return err },
		"Figure3":    func(o Options) error { _, err := Figure3(o); return err },
		"Figure4":    func(o Options) error { _, err := Figure4(o); return err },
		"Figure5":    func(o Options) error { _, err := Figure5(o); return err },
	} {
		for _, o := range []Options{bad, unbounded} {
			if err := run(o); err == nil {
				t.Errorf("%s accepted %+v", name, o)
			}
		}
	}
}

func TestHeuristicsTableShape(t *testing.T) {
	rows := HeuristicsTable()
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Makespans) < 8 {
			t.Fatalf("%s: only %d heuristics", r.Instance, len(r.Makespans))
		}
		best := r.Makespans[r.BestName]
		for n, ms := range r.Makespans {
			if ms <= 0 {
				t.Errorf("%s/%s: non-positive makespan", r.Instance, n)
			}
			if ms < best {
				t.Errorf("%s: BestName %s (%v) beaten by %s (%v)", r.Instance, r.BestName, best, n, ms)
			}
		}
		// MET must never be the winner on consistent instances.
		if strings.HasPrefix(r.Instance, "u_c") && r.BestName == "met" {
			t.Errorf("%s: MET cannot win on a consistent matrix", r.Instance)
		}
	}
	h, c := HeuristicsCells(rows)
	checkCells(t, h, c)
}

func TestTakeoverStudyOrdering(t *testing.T) {
	curves, err := TakeoverStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 5 {
		t.Fatalf("%d curves", len(curves))
	}
	byName := map[string]float64{}
	for _, c := range curves {
		if c.TakeoverTime < 0 {
			t.Fatalf("%v did not saturate", c.Pattern)
		}
		byName[c.Pattern.String()] = c.TakeoverTime
	}
	if !(byName["Panmictic"] < byName["C9"] && byName["C9"] < byName["L5"]) {
		t.Errorf("takeover times out of order: %v", byName)
	}
	h, c := TakeoverCells(curves)
	checkCells(t, h, c)
}
