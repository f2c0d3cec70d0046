package experiments

import (
	"fmt"
	"math"
	"time"

	"gridcma"
	"gridcma/internal/cell"
	"gridcma/internal/cma"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/run"
)

// Point is one sample of a tuning time series: the best makespan so far
// after a number of iterations / elapsed time, averaged over runs.
type Point struct {
	Iteration int
	Elapsed   time.Duration // mean over runs
	Makespan  float64       // mean best-so-far over runs
}

// Series is the makespan-reduction curve of one configuration variant, the
// unit of Figures 2–5.
type Series struct {
	Label  string
	Points []Point
}

// Final returns the last (best) makespan of the series.
func (s Series) Final() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Makespan
}

// FigureInstance is the instance the tuning figures run on. The paper
// tunes on random ETC instances; we fix the consistent hi-hi benchmark
// instance, whose scale matches Fig. 2's y-axis.
const FigureInstance = "u_c_hihi.0"

// variant is one labelled configuration of a tuning figure.
type variant struct {
	label string
	cfg   cma.Config
}

// traceVariants traces every variant in order, checking the options
// before the first run.
func traceVariants(o Options, vs []variant) ([]Series, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	out := make([]Series, 0, len(vs))
	for _, v := range vs {
		s, err := traceVariant(v, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// traceVariant runs the variant configuration o.Runs times and averages
// the best-makespan trajectory pointwise (runs are aligned by iteration,
// which iteration-bounded budgets make exact). Once the options' context
// is cancelled it returns the context's error: a series averaged over
// cut-short runs is not the figure.
func traceVariant(v variant, o Options) (Series, error) {
	sched, err := gridcma.NewCMA(v.cfg)
	if err != nil {
		return Series{}, err
	}
	in := Instance(FigureInstance)
	var agg []Point
	for k := 0; k < o.Runs; k++ {
		var trace []run.Progress
		_, err := sched.Run(o.Budget.Context(), in, gridcma.WithBudget(o.Budget),
			gridcma.WithSeed(o.Seed+uint64(k)), gridcma.WithObserver(func(p run.Progress) {
				trace = append(trace, p)
			}))
		if failed(err) {
			return Series{}, err
		}
		if err := o.Budget.Context().Err(); err != nil {
			return Series{}, err
		}
		if agg == nil {
			agg = make([]Point, len(trace))
		}
		if len(trace) < len(agg) {
			agg = agg[:len(trace)] // time-budgeted runs may differ in length
		}
		// The figures plot makespan *reduction*, so each run contributes
		// its running-minimum makespan: the engines track the best
		// solution by scalarised fitness, under which the best-so-far
		// makespan alone may occasionally tick upwards.
		low := math.Inf(1)
		for i := range agg {
			if trace[i].Makespan < low {
				low = trace[i].Makespan
			}
			agg[i].Iteration = trace[i].Iteration
			agg[i].Elapsed += trace[i].Elapsed
			agg[i].Makespan += low
		}
	}
	for i := range agg {
		agg[i].Elapsed /= time.Duration(o.Runs)
		agg[i].Makespan /= float64(o.Runs)
	}
	return Series{Label: v.label, Points: agg}, nil
}

// Figure2 reproduces Fig. 2: makespan reduction under the three local
// search methods (LM, SLM, LMCTS), everything else per Table 1.
func Figure2(o Options) ([]Series, error) {
	var vs []variant
	for _, m := range []localsearch.Method{localsearch.LM{}, localsearch.SLM{}, localsearch.LMCTS{}} {
		cfg := cma.DefaultConfig()
		cfg.LocalSearch = m
		vs = append(vs, variant{m.Name(), cfg})
	}
	return traceVariants(o, vs)
}

// Figure3 reproduces Fig. 3: makespan reduction under the neighborhood
// patterns Panmictic, L5, L9, C9 and C13.
func Figure3(o Options) ([]Series, error) {
	var vs []variant
	for _, p := range []cell.Pattern{cell.Panmictic, cell.L5, cell.L9, cell.C9, cell.C13} {
		cfg := cma.DefaultConfig()
		cfg.Pattern = p
		vs = append(vs, variant{p.String(), cfg})
	}
	return traceVariants(o, vs)
}

// Figure4 reproduces Fig. 4: makespan reduction under N-tournament
// selection with N = 3, 5, 7.
func Figure4(o Options) ([]Series, error) {
	var vs []variant
	for _, n := range []int{3, 5, 7} {
		cfg := cma.DefaultConfig()
		cfg.Selector = operators.NewTournament(n)
		vs = append(vs, variant{fmt.Sprintf("Ntour(%d)", n), cfg})
	}
	return traceVariants(o, vs)
}

// Figure5 reproduces Fig. 5: makespan reduction under the recombination
// sweep orders FLS, FRS and NRS.
func Figure5(o Options) ([]Series, error) {
	var vs []variant
	for _, ord := range []cell.Order{cell.FLS, cell.FRS, cell.NRS} {
		cfg := cma.DefaultConfig()
		cfg.RecombOrder = ord
		vs = append(vs, variant{ord.String(), cfg})
	}
	return traceVariants(o, vs)
}

// Table1Setting is one row of the Table 1 configuration dump.
type Table1Setting struct{ Parameter, Value string }

// Table1 returns the tuned configuration exactly as the paper's Table 1
// lists it, read back from the live DefaultConfig so the dump can never
// drift from the code.
func Table1() []Table1Setting {
	cfg := cma.DefaultConfig()
	sel := cfg.Selector.(operators.Tournament)
	return []Table1Setting{
		{"max exec time", "90s (paper protocol; configurable)"},
		{"population height", fmt.Sprint(cfg.Height)},
		{"population width", fmt.Sprint(cfg.Width)},
		{"nb solutions to recombine", fmt.Sprint(cfg.SolutionsToRecombine)},
		{"nb recombinations", fmt.Sprint(cfg.Recombinations)},
		{"nb mutations", fmt.Sprint(cfg.Mutations)},
		{"start choice", "LJFR-SJFR"},
		{"neighborhood pattern", cfg.Pattern.String()},
		{"recombination order", cfg.RecombOrder.String()},
		{"mutation order", cfg.MutOrder.String()},
		{"recombine choice", cfg.Crossover.Name()},
		{"recombine selection", sel.Name()},
		{"mutate choice", cfg.Mutator.Name()},
		{"local search choice", cfg.LocalSearch.Name()},
		{"nb local search iterations", fmt.Sprint(cfg.LSIterations)},
		{"add only if better", fmt.Sprint(cfg.AddOnlyIfBetter)},
		{"lambda", fmt.Sprint(cfg.Objective.Lambda)},
	}
}
