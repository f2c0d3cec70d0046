package experiments

import (
	"gridcma"
	"gridcma/internal/heuristics"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
	"gridcma/internal/stats"
)

// budgetFor grants alg a budget comparable to the options' budget. Time
// budgets apply to every algorithm unchanged (the paper's protocol);
// iteration budgets are interpreted as cMA iterations and converted into
// an evaluation-fair allowance for the other algorithms. Either way the
// budget keeps the options' context, so cancelling it stops the run.
func budgetFor(alg Algorithm, o Options) run.Budget {
	if o.Budget.MaxTime > 0 {
		return o.Budget
	}
	evals := o.Budget.MaxIterations * evalsPerIteration("cma")
	return FairBudget(alg, evals).WithContext(o.Budget.Context())
}

// repeatFair runs each named registry algorithm, in order, on the named
// instance under its evaluation-fair budget. Once the options' context is
// cancelled it returns the context's error: a table of cut-short runs is
// not the table.
func repeatFair(instName string, o Options, algs ...string) ([]Sample, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	out := make([]Sample, len(algs))
	for i, name := range algs {
		alg, err := gridcma.New(name)
		if err != nil {
			return nil, err
		}
		opts := o
		opts.Budget = budgetFor(alg, o)
		if out[i], err = Repeat(alg, Instance(instName), opts); err != nil {
			return nil, err
		}
		if err := o.Budget.Context().Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Table2Row compares best makespans of Braun et al.'s GA and the cMA on
// one instance, next to the paper's published pair.
type Table2Row struct {
	Instance string

	BraunGA float64 // our measured best makespan
	CMA     float64
	Delta   float64 // 100·(BraunGA−CMA)/BraunGA, positive = cMA better

	PaperBraunGA float64
	PaperCMA     float64
	PaperDelta   float64
}

// Table2 reproduces Table 2 (makespan: Braun GA vs cMA).
func Table2(o Options) ([]Table2Row, error) {
	refs := References()
	var rows []Table2Row
	for _, name := range gridcma.BenchmarkInstanceNames() {
		s, err := repeatFair(name, o, "braun-ga", "cma")
		if err != nil {
			return nil, err
		}
		gaS, cmaS := s[0], s[1]
		ref := refs[name]
		rows = append(rows, Table2Row{
			Instance:     name,
			BraunGA:      gaS.BestMakespan,
			CMA:          cmaS.BestMakespan,
			Delta:        stats.PercentDelta(gaS.BestMakespan, cmaS.BestMakespan),
			PaperBraunGA: ref.BraunGAMakespan,
			PaperCMA:     ref.CMAMakespan,
			PaperDelta:   stats.PercentDelta(ref.BraunGAMakespan, ref.CMAMakespan),
		})
	}
	return rows, nil
}

// Table3Row compares best makespans of the Carretero–Xhafa GA, the
// Struggle GA and the cMA.
type Table3Row struct {
	Instance string

	SteadyStateGA float64
	StruggleGA    float64
	CMA           float64

	PaperSteadyStateGA float64
	PaperStruggleGA    float64
	PaperCMA           float64
}

// Table3 reproduces Table 3 (makespan: the two other GAs vs cMA).
func Table3(o Options) ([]Table3Row, error) {
	refs := References()
	var rows []Table3Row
	for _, name := range gridcma.BenchmarkInstanceNames() {
		s, err := repeatFair(name, o, "ss-ga", "struggle-ga", "cma")
		if err != nil {
			return nil, err
		}
		ss, st, cm := s[0], s[1], s[2]
		ref := refs[name]
		rows = append(rows, Table3Row{
			Instance:           name,
			SteadyStateGA:      ss.BestMakespan,
			StruggleGA:         st.BestMakespan,
			CMA:                cm.BestMakespan,
			PaperSteadyStateGA: ref.CarreteroXhafaGAMakespan,
			PaperStruggleGA:    ref.StruggleGAMakespan,
			PaperCMA:           ref.CMAMakespan,
		})
	}
	return rows, nil
}

// Table4Row compares the flowtime of the LJFR-SJFR heuristic against the
// cMA's.
type Table4Row struct {
	Instance string

	LJFRSJFR float64
	CMA      float64
	Delta    float64 // improvement %

	PaperLJFRSJFR float64
	PaperCMA      float64
	PaperDelta    float64
}

// Table4 reproduces Table 4 (flowtime: LJFR-SJFR vs cMA). The heuristic
// side is deterministic, so it is evaluated once.
func Table4(o Options) ([]Table4Row, error) {
	refs := References()
	var rows []Table4Row
	for _, name := range gridcma.BenchmarkInstanceNames() {
		in := Instance(name)
		h := schedule.NewState(in, heuristics.LJFRSJFR(in))
		s, err := repeatFair(name, o, "cma")
		if err != nil {
			return nil, err
		}
		cm := s[0]
		ref := refs[name]
		rows = append(rows, Table4Row{
			Instance:      name,
			LJFRSJFR:      h.Flowtime(),
			CMA:           cm.BestFlowtime,
			Delta:         stats.PercentDelta(h.Flowtime(), cm.BestFlowtime),
			PaperLJFRSJFR: ref.LJFRSJFRFlowtime,
			PaperCMA:      ref.CMAFlowtime,
			PaperDelta:    stats.PercentDelta(ref.LJFRSJFRFlowtime, ref.CMAFlowtime),
		})
	}
	return rows, nil
}

// Table5Row compares Struggle GA and cMA flowtimes.
type Table5Row struct {
	Instance string

	StruggleGA float64
	CMA        float64
	Delta      float64

	PaperStruggleGA float64
	PaperCMA        float64
	PaperDelta      float64
}

// Table5 reproduces Table 5 (flowtime: Struggle GA vs cMA).
func Table5(o Options) ([]Table5Row, error) {
	refs := References()
	var rows []Table5Row
	for _, name := range gridcma.BenchmarkInstanceNames() {
		s, err := repeatFair(name, o, "struggle-ga", "cma")
		if err != nil {
			return nil, err
		}
		st, cm := s[0], s[1]
		ref := refs[name]
		rows = append(rows, Table5Row{
			Instance:        name,
			StruggleGA:      st.BestFlowtime,
			CMA:             cm.BestFlowtime,
			Delta:           stats.PercentDelta(st.BestFlowtime, cm.BestFlowtime),
			PaperStruggleGA: ref.StruggleGAFlowtime,
			PaperCMA:        ref.CMAFlowtime,
			PaperDelta:      stats.PercentDelta(ref.StruggleGAFlowtime, ref.CMAFlowtime),
		})
	}
	return rows, nil
}

// RobustnessRow is the §5.1 robustness evidence for one instance: the
// relative standard deviation of the cMA's best makespan across runs (the
// paper reports "roughly 1 %").
type RobustnessRow struct {
	Instance  string
	Makespans stats.Summary
	RelStd    float64
}

// Robustness reproduces the §5.1 robustness study.
func Robustness(o Options) ([]RobustnessRow, error) {
	var rows []RobustnessRow
	for _, name := range gridcma.BenchmarkInstanceNames() {
		s, err := repeatFair(name, o, "cma")
		if err != nil {
			return nil, err
		}
		rows = append(rows, RobustnessRow{
			Instance:  name,
			Makespans: s[0].Makespans,
			RelStd:    s[0].Makespans.RelStd(),
		})
	}
	return rows, nil
}
