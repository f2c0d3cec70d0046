// Command gridsched runs one scheduler on one ETC instance and prints the
// resulting schedule quality. It is the single-shot face of the library:
//
//	gridsched -instance u_c_hihi.0 -alg cma -time 5s
//	gridsched -file my.etc -alg minmin
//	gridsched -gen 100000x1000:c_hihi:s7 -alg cma -time 60s
//	gridsched -instance u_i_lolo.0 -alg struggle-ga -iters 2000 -runs 5
//	gridsched -instance u_c_hihi.0 -race cma,sa,tabu -time 2s
//
// Algorithms come from the registry (gridsched -list): cma, cma-par,
// cma-sync, island, braun-ga, ss-ga, struggle-ga, gsa, sa, tabu, plus every
// constructive heuristic (ljfr-sjfr, minmin, maxmin, duplex, sufferage,
// mct, met, olb, kpb). Ctrl-C cancels a running search and reports the
// best schedule found so far. Add -gantt for an ASCII timeline of the
// best schedule and -export FILE for a CSV dump.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"gridcma"
	"gridcma/internal/config"
	"gridcma/internal/etc"
	"gridcma/internal/schedule"
	"gridcma/internal/stats"
)

func main() {
	var (
		instName = flag.String("instance", "", "benchmark instance name (e.g. u_c_hihi.0)")
		file     = flag.String("file", "", "instance file in benchmark text format")
		gen      = flag.String("gen", "", "synthetic instance spec <jobs>x<machs>[:<class>][:s<seed>][:f32], e.g. 100000x1000:c_hihi:s7")
		alg      = flag.String("alg", "cma", "algorithm to run (see -list)")
		race     = flag.String("race", "", "comma-separated portfolio to race (overrides -alg)")
		maxTime  = flag.Duration("time", 0, "wall-clock budget (e.g. 90s)")
		iters    = flag.Int("iters", 0, "iteration budget (used when -time is 0; default 100)")
		runs     = flag.Int("runs", 1, "independent runs (best reported)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		lambda   = flag.Float64("lambda", -1, "makespan weight λ of the objective (default: the paper's 0.75)")
		workers  = flag.Int("workers", 0, "goroutines evaluating offspring (cMA engines; results are identical for any value >= 1)")
		verbose  = flag.Bool("v", false, "print progress every iteration")
		list     = flag.Bool("list", false, "list algorithms and instances, then exit")
		gantt    = flag.Bool("gantt", false, "render an ASCII gantt of the best schedule")
		export   = flag.String("export", "", "write the best schedule's assignments as CSV to this file")
		cfgPath  = flag.String("config", "", "JSON cMA configuration file (only with -alg cma)")
	)
	flag.Parse()

	if *list {
		fmt.Println("metaheuristics:", strings.Join(gridcma.Algorithms(), " "))
		fmt.Println("heuristics:    ", gridcma.HeuristicNames())
		fmt.Println("instances:     ", gridcma.BenchmarkInstanceNames())
		return
	}

	in, err := loadInstance(*instName, *file, *gen)
	if err != nil {
		fatal(err)
	}

	// Constructive heuristics are deterministic one-shots.
	if h, herr := gridcma.Heuristic(*alg); *race == "" && herr == nil {
		s := h(in)
		st := schedule.NewState(in, s)
		fmt.Printf("instance  %s (%d jobs × %d machines)\n", in.Name, in.Jobs, in.Machs)
		fmt.Printf("algorithm %s\n", *alg)
		fmt.Printf("makespan  %.3f\nflowtime  %.3f\nfitness   %.3f\n",
			st.Makespan(), st.Flowtime(), schedule.DefaultObjective.Of(st))
		finish(st, *gantt, *export)
		return
	}

	budget := gridcma.Budget{MaxTime: *maxTime, MaxIterations: *iters}
	if !budget.Bounded() {
		budget.MaxIterations = 100
	}
	opts := []gridcma.RunOption{gridcma.WithBudget(budget)}
	if *lambda >= 0 {
		opts = append(opts, gridcma.WithLambda(*lambda))
	}
	if *workers > 0 {
		opts = append(opts, gridcma.WithWorkers(*workers))
	}

	// Ctrl-C cancels the search; the best-so-far schedule is still
	// reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("instance  %s (%d jobs × %d machines)\n", in.Name, in.Jobs, in.Machs)
	if *race != "" {
		runRace(ctx, in, strings.Split(*race, ","), opts, *seed, *gantt, *export)
		return
	}

	a, err := buildAlgorithm(*alg, *cfgPath)
	if err != nil {
		fatal(err)
	}

	var obs gridcma.Observer
	if *verbose {
		obs = func(p gridcma.Progress) {
			fmt.Printf("  iter %4d  %8.2fs  fitness %.3f  makespan %.3f\n",
				p.Iteration, p.Elapsed.Seconds(), p.Fitness, p.Makespan)
		}
	}

	fmt.Printf("algorithm %s, %d run(s), budget %s\n", a.Name(), *runs, budgetString(budget))
	start := time.Now()
	results := make([]gridcma.Result, 0, *runs)
	for k := 0; k < *runs; k++ {
		o := append([]gridcma.RunOption{}, opts...)
		o = append(o, gridcma.WithSeed(*seed+uint64(k)))
		if k == 0 && obs != nil {
			o = append(o, gridcma.WithObserver(obs)) // progress only for the first run
		}
		res, err := a.Run(ctx, in, o...)
		if err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		if res.Best != nil {
			results = append(results, res)
		}
		if ctx.Err() != nil {
			fmt.Println("interrupted — reporting best so far")
			break
		}
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no completed runs"))
	}
	best := results[0]
	ms := make([]float64, len(results))
	for i, r := range results {
		ms[i] = r.Makespan
		if r.Better(best) {
			best = r
		}
	}
	fmt.Printf("elapsed   %.2fs (%d logical CPUs)\n", time.Since(start).Seconds(), runtime.NumCPU())
	fmt.Printf("best makespan  %.3f\nbest flowtime  %.3f\nbest fitness   %.3f\n",
		best.Makespan, best.Flowtime, best.Fitness)
	if len(results) > 1 {
		sum := stats.Summarize(ms)
		fmt.Printf("makespan over %d runs: mean %.3f std %.3f (%.2f%%)\n",
			len(results), sum.Mean, sum.Std, 100*sum.RelStd())
	}
	finish(schedule.NewState(in, best.Best), *gantt, *export)
}

// runRace races a portfolio of registry algorithms and reports the winner.
func runRace(ctx context.Context, in *gridcma.Instance, names []string, opts []gridcma.RunOption, seed uint64, gantt bool, export string) {
	var algs []gridcma.Scheduler
	for _, n := range names {
		a, err := gridcma.New(strings.TrimSpace(n))
		if err != nil {
			fatal(err)
		}
		algs = append(algs, a)
	}
	fmt.Printf("racing    %s\n", strings.Join(names, " vs "))
	start := time.Now()
	out, err := gridcma.Race(ctx, in, algs, append(opts, gridcma.WithSeed(seed))...)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	if out.Best.Best == nil {
		fatal(fmt.Errorf("race interrupted before any contender finished an iteration"))
	}
	for i, r := range out.Results {
		marker := "  "
		if i == out.Winner {
			marker = "* "
		}
		fmt.Printf("%s%-14s fitness %14.3f  makespan %14.3f  %s\n",
			marker, strings.TrimSpace(names[i]), r.Fitness, r.Makespan, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("elapsed   %.2fs\n", time.Since(start).Seconds())
	finish(schedule.NewState(in, out.Best.Best), gantt, export)
}

// finish handles the optional gantt rendering and CSV export of a final
// evaluated schedule.
func finish(st *schedule.State, gantt bool, export string) {
	if gantt {
		fmt.Println()
		fmt.Print(st.Gantt(64))
		_, _, imb := st.LoadSummary()
		fmt.Printf("load imbalance (max/mean completion): %.3f\n", imb)
	}
	if export != "" {
		f, err := os.Create(export)
		if err != nil {
			fatal(err)
		}
		if err := st.WriteAssignments(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("assignments written to", export)
	}
}

func loadInstance(name, file, gen string) (*gridcma.Instance, error) {
	set := 0
	for _, s := range []string{name, file, gen} {
		if s != "" {
			set++
		}
	}
	switch {
	case set > 1:
		return nil, fmt.Errorf("specify only one of -instance, -file and -gen")
	case gen != "":
		g, err := etc.ParseGenSpec(gen)
		if err != nil {
			return nil, err
		}
		return g.Generate()
	case file != "":
		return etc.ReadFile(file)
	case name != "":
		return gridcma.BenchmarkInstance(name)
	default:
		return gridcma.BenchmarkInstance("u_c_hihi.0")
	}
}

// buildAlgorithm maps a CLI name to a configured scheduler via the
// registry; -config swaps in an explicit cMA configuration.
func buildAlgorithm(name, cfgPath string) (gridcma.Scheduler, error) {
	if cfgPath != "" {
		if name != "cma" {
			return nil, fmt.Errorf("-config applies only to -alg cma")
		}
		cfg, err := config.Load(cfgPath)
		if err != nil {
			return nil, err
		}
		return gridcma.NewCMA(cfg)
	}
	return gridcma.New(name)
}

func budgetString(b gridcma.Budget) string {
	if b.MaxTime > 0 {
		return b.MaxTime.String()
	}
	return fmt.Sprintf("%d iterations", b.MaxIterations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsched:", err)
	os.Exit(1)
}
