package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// compareMain implements -compare a.json... -- b.json...: side a is the
// parent, side b the change, one file per run (as written by -out). For
// every (workload, metric) both sides have, it prints each side's median
// and quartiles, the change of the median, and a verdict:
//
//   - better: b wins at least nine tenths of the runs paired in file
//     order, and the medians differ by more than a's quartile spread;
//   - worse: b's median is worse than a's by more than the metric's bound;
//   - within bound: neither;
//   - unresolved: a's own spread exceeds the bound, so a regression
//     within it could not be seen (unless every b run beats every a run).
//
// Metrics without a bound (extras and per-layer) read better, worse (the
// mirror of better) or "no bound".
func compareMain(args []string, stdout, stderr io.Writer) int {
	split := slices.Index(args, "--")
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare a.json... -- b.json...")
		return 2
	}
	a, err := loadRuns(args[:split])
	if err == nil {
		var b map[runKey][]float64
		if b, err = loadRuns(args[split+1:]); err == nil {
			printComparison(stdout, a, b)
			return 0
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

type runKey struct{ workload, metric string }

// loadRuns reads -out files and collects every metric's values, one per
// file, in file order.
func loadRuns(paths []string) (map[runKey][]float64, error) {
	out := map[runKey][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rep.Results {
			for _, m := range r.Metrics {
				k := runKey{r.Workload, m.Name}
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out, nil
}

func printComparison(w io.Writer, a, b map[runKey][]float64) {
	fmt.Fprintf(w, "%-12s %-36s %-10s %32s %32s %9s  %s\n", "workload", "metric", "unit", "a median [q1 q3]", "b median [q1 q3]", "delta", "verdict")
	for _, wl := range workloads {
		for _, defs := range allMetrics {
			for _, d := range defs {
				k := runKey{wl.name, d.Name}
				va, vb := a[k], b[k]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				a1, am, a3 := quartiles(va)
				b1, bm, b3 := quartiles(vb)
				fmt.Fprintf(w, "%-12s %-36s %-10s %32s %32s %+8.2f%%  %s\n", wl.name, d.Name, d.Unit,
					fmt.Sprintf("%.5g [%.5g %.5g]", am, a1, a3), fmt.Sprintf("%.5g [%.5g %.5g]", bm, b1, b3),
					100*relChange(am, bm), verdict(d, va, vb))
			}
		}
	}
}

// relChange is (b − a) / |a|.
func relChange(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(int(math.Copysign(1, b)))
	}
	return (b - a) / math.Abs(a)
}

func verdict(d metricDef, a, b []float64) string {
	// worse(x, y) > 0 when y is worse than x in the metric's direction.
	worse := func(x, y float64) float64 {
		if d.Better == "higher" {
			return -relChange(x, y)
		}
		return relChange(x, y)
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	spread := 0.0
	if am != 0 {
		spread = (a3 - a1) / math.Abs(am)
	}
	change := worse(am, bm)
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch c := worse(a[i], b[i]); {
		case c < 0:
			wins++
		case c > 0:
			losses++
		}
	}
	switch {
	case 10*wins >= 9*n && -change > spread:
		return "better"
	case d.Bound == 0 && 10*losses >= 9*n && change > spread:
		return "worse"
	case d.Bound == 0:
		return "no bound"
	case spread > d.Bound:
		for _, x := range a {
			for _, y := range b {
				if worse(x, y) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	case change > d.Bound:
		return "worse"
	}
	return "within bound"
}
