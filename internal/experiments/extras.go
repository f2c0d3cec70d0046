package experiments

import (
	"fmt"
	"time"

	"gridcma"
	"gridcma/internal/etc"
	"gridcma/internal/heuristics"
	"gridcma/internal/schedule"
)

// HeuristicsRow is one instance's makespans across every constructive
// heuristic in the library — the Braun-et-al.-style baseline panorama the
// paper's benchmark descends from. Values are deterministic (no runs).
type HeuristicsRow struct {
	Instance  string
	Makespans map[string]float64 // heuristic name -> makespan
	BestName  string
}

// HeuristicsTable evaluates all constructive heuristics on the 12
// benchmark instances.
func HeuristicsTable() []HeuristicsRow {
	var rows []HeuristicsRow
	for _, name := range gridcma.BenchmarkInstanceNames() {
		in := Instance(name)
		row := HeuristicsRow{Instance: name, Makespans: map[string]float64{}}
		best := ""
		for _, hn := range heuristics.Names() {
			h, err := heuristics.ByName(hn)
			if err != nil {
				panic(err)
			}
			ms := schedule.NewState(in, h(in)).Makespan()
			row.Makespans[hn] = ms
			if best == "" || ms < row.Makespans[best] {
				best = hn
			}
		}
		row.BestName = best
		rows = append(rows, row)
	}
	return rows
}

// FrontierRow is one rung of the large-instance scaling experiment: the
// tuned cMA on a synthetic GenSpec instance far beyond the 512×16 Braun
// suite, reporting generation cost, matrix footprint and solution quality
// against the size axis the paper never reaches.
type FrontierRow struct {
	Spec         string
	Jobs, Machs  int
	BuildSeconds float64
	MatrixMB     float64
	Seconds      float64
	Iterations   int
	Makespan     float64
	Flowtime     float64
}

// DefaultFrontierSpecs is the ladder Frontier walks when the caller has
// no explicit specs — sized so an iteration-bounded run finishes in
// table time; gridsched -gen runs the 100k×1k rung.
var DefaultFrontierSpecs = []string{
	"4096x64:c_hihi:s1", "8192x128:c_hihi:s1", "16384x128:c_hihi:s1",
}

// Frontier generates each spec and runs the tuned cMA once per rung at
// the options' budget and seed (single run per rung — at these sizes the
// interesting axis is scale, not run-to-run spread).
func Frontier(o Options, specs []string) ([]FrontierRow, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		specs = DefaultFrontierSpecs
	}
	sched, err := gridcma.New("cma")
	if err != nil {
		return nil, err
	}
	rows := make([]FrontierRow, 0, len(specs))
	for _, s := range specs {
		g, err := etc.ParseGenSpec(s)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		in, err := g.Generate()
		if err != nil {
			return nil, err
		}
		row := FrontierRow{
			Spec: s, Jobs: in.Jobs, Machs: in.Machs,
			BuildSeconds: time.Since(start).Seconds(),
			MatrixMB:     float64(in.Bytes()) / (1 << 20),
		}
		start = time.Now()
		res, err := sched.Run(o.Budget.Context(), in, gridcma.WithBudget(o.Budget), gridcma.WithSeed(o.Seed))
		if failed(err) {
			return nil, err
		}
		row.Seconds = time.Since(start).Seconds()
		row.Iterations = res.Iterations
		row.Makespan = res.Makespan
		row.Flowtime = res.Flowtime
		rows = append(rows, row)
	}
	return rows, nil
}

// FrontierCells renders the scaling ladder.
func FrontierCells(rows []FrontierRow) ([]string, [][]string) {
	headers := []string{"Spec", "Jobs", "Machs", "Build s", "Matrix MB", "Run s", "Iters", "Makespan", "Flowtime"}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Spec,
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%d", r.Machs),
			fmt.Sprintf("%.2f", r.BuildSeconds),
			fmt.Sprintf("%.1f", r.MatrixMB),
			fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%d", r.Iterations),
			fmt.Sprintf("%.0f", r.Makespan),
			fmt.Sprintf("%.0f", r.Flowtime),
		}
	}
	return headers, out
}

// HeuristicsCells renders the heuristic panorama.
func HeuristicsCells(rows []HeuristicsRow) ([]string, [][]string) {
	names := heuristics.Names()
	headers := append([]string{"Instance"}, names...)
	headers = append(headers, "best")
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := []string{r.Instance}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.0f", r.Makespans[n]))
		}
		cells = append(cells, r.BestName)
		out[i] = cells
	}
	return headers, out
}
