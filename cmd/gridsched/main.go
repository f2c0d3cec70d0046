// Command gridsched is the batch face of the library: one binary whose
// default subcommand runs one scheduler, or races a portfolio, on one
// ETC instance and prints the resulting schedule quality.
//
//	gridsched -instance u_c_hihi.0 -alg cma -time 5s
//	gridsched -file my.etc -alg minmin
//	gridsched -gen 100000x1000:c_hihi:s7 -alg cma -time 60s
//	gridsched -instance u_i_lolo.0 -alg struggle-ga -iters 2000 -runs 5
//	gridsched -instance u_c_hihi.0 -race cma,sa,tabu -time 2s
//
// -list names the registry algorithms, the constructive heuristics and
// the benchmark instances. Ctrl-C cancels a running search and reports
// the best schedule found so far. Add -gantt for an ASCII timeline of the
// best schedule and -export FILE for a CSV dump.
//
// gen writes ETC instances in the benchmark text format, selected by the
// solve's -instance, -file or -gen, by a class at a custom size, or all:
//
//	gridsched gen -instance u_c_hihi.0        # one canonical instance to stdout
//	gridsched gen -all -dir ./instances       # the full 12-instance suite
//	gridsched gen -class u_i_hilo -k 3 -jobs 1024 -machs 32 -seed 7 -o big.etc
//
// sim runs the discrete-event dynamic grid simulation: the paper's
// deployment story, a dynamic scheduler that periodically runs the batch
// cMA over newly arrived jobs.
//
//	gridsched sim                             # cMA policy, default scenario
//	gridsched sim -policy minmin -horizon 2000
//	gridsched sim -policy tabu -cma-iters 20  # any registry algorithm
//	gridsched sim -compare                    # cMA vs heuristics side by side
//	gridsched sim -trace-out run.log          # export the gridd event stream
//
// experiments regenerates the tables (table1–table5) and figures
// (fig2–fig5) of the paper's evaluation, plus robustness, heuristics and
// takeover, all of them under -run all. The frontier scaling ladder over
// synthetic GenSpec instances runs only by name (override it with -specs).
//
//	gridsched experiments -run table4                  # quick, iteration-bounded
//	gridsched experiments -run all -iters 60 -runs 5   # scaled protocol
//	gridsched experiments -run table2 -full            # the paper's 90 s × 10 runs
//	gridsched experiments -run fig3 -csv out/          # also dump CSV series
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"gridcma"
	"gridcma/internal/config"
	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/experiments"
	"gridcma/internal/schedule"
	"gridcma/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommands maps each first word to its subcommand; a command line
// that starts with a flag, or is empty, runs the solve.
var subcommands = map[string]func(*flag.FlagSet, []string, io.Writer) error{
	"gen":         runGen,
	"sim":         runSim,
	"experiments": runExperiments,
}

// run is gridsched with its arguments and output streams: it returns the
// exit code (0 on success, 1 on a runtime failure, 2 on a bad command
// line). Every subcommand parses and checks all its flags before it
// loads an instance or writes anything; results go to stdout, every
// error to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	cmd, name := runSolve, "gridsched"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		if cmd = subcommands[args[0]]; cmd == nil {
			fmt.Fprintf(stderr, "gridsched: unknown subcommand %q (want gen, sim or experiments, or flags for a solve)\n", args[0])
			return 2
		}
		name, args = name+" "+args[0], args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := cmd(fs, args, stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != errReported {
		fmt.Fprintln(stderr, "gridsched:", err)
	}
	if errors.As(err, new(badUsage)) {
		return 2
	}
	return 1
}

// badUsage marks an error in the command line itself: run exits 2 on it.
type badUsage struct{ error }

func usagef(format string, a ...any) error { return badUsage{fmt.Errorf(format, a...)} }

// errReported is a flag error the FlagSet has already printed.
var errReported = badUsage{errors.New("bad flags")}

// count returns how many of on hold.
func count(on ...bool) int {
	n := 0
	for _, b := range on {
		if b {
			n++
		}
	}
	return n
}

// parse parses args into fs and refuses a stray positional argument.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errReported
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// source is the instance selection the solve and gen share: at most one
// of -instance, -file and -gen.
type source struct{ name, file, gen string }

func (s *source) flags(fs *flag.FlagSet) {
	fs.StringVar(&s.name, "instance", "", "benchmark instance name (e.g. u_c_hihi.0)")
	fs.StringVar(&s.file, "file", "", "instance file in benchmark text format")
	fs.StringVar(&s.gen, "gen", "", "synthetic instance spec <jobs>x<machs>[:<class>][:s<seed>], e.g. 100000x1000:c_hihi:s7")
}

// loader checks the selection without generating or reading anything
// and returns the function that builds it; with nothing selected that
// is u_c_hihi.0.
func (s source) loader() (func() (*gridcma.Instance, error), error) {
	switch {
	case count(s.name != "", s.file != "", s.gen != "") > 1:
		return nil, usagef("specify only one of -instance, -file and -gen")
	case s.gen != "":
		g, err := etc.ParseGenSpec(s.gen)
		if err != nil {
			return nil, badUsage{err}
		}
		return g.Generate, nil
	case s.file != "":
		return func() (*gridcma.Instance, error) { return etc.ReadFile(s.file) }, nil
	}
	name := cmp.Or(s.name, "u_c_hihi.0")
	if _, _, err := gridcma.ParseInstanceClass(name); err != nil {
		return nil, badUsage{err}
	}
	return func() (*gridcma.Instance, error) { return gridcma.BenchmarkInstance(name) }, nil
}

// runSolve is the default subcommand: one algorithm, or a raced
// portfolio, on one instance.
func runSolve(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var src source
	src.flags(fs)
	var (
		alg     = fs.String("alg", "cma", "algorithm to run (see -list)")
		race    = fs.String("race", "", "comma-separated portfolio to race (overrides -alg)")
		maxTime = fs.Duration("time", 0, "wall-clock budget (e.g. 90s)")
		iters   = fs.Int("iters", 0, "iteration budget (used when -time is 0; default 100)")
		runs    = fs.Int("runs", 1, "independent runs (best reported)")
		seed    = fs.Uint64("seed", 1, "base RNG seed")
		lambda  = fs.Float64("lambda", -1, "makespan weight λ of the objective (default: the paper's 0.75)")
		workers = fs.Int("workers", 0, "goroutines evaluating offspring (cMA engines; results are identical for any value >= 1)")
		verbose = fs.Bool("v", false, "print progress every iteration")
		list    = fs.Bool("list", false, "list algorithms and instances, then exit")
		gantt   = fs.Bool("gantt", false, "render an ASCII gantt of the best schedule")
		export  = fs.String("export", "", "write the best schedule's assignments as CSV to this file")
		cfgPath = fs.String("config", "", "JSON cMA configuration file (only with -alg cma)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *runs < 1:
		return usagef("-runs %d: need at least one run", *runs)
	case *iters < 0 || *maxTime < 0:
		return usagef("negative budget: -iters %d, -time %s", *iters, *maxTime)
	case *lambda != -1 && (*lambda < 0 || *lambda > 1):
		return usagef("-lambda %v outside [0,1]", *lambda)
	case *workers < 0:
		return usagef("negative -workers %d", *workers)
	case *cfgPath != "" && (*alg != "cma" || *race != ""):
		return usagef("-config applies only to -alg cma, without -race")
	}
	load, err := src.loader()
	if err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "metaheuristics:", strings.Join(gridcma.Algorithms(), " "))
		fmt.Fprintln(stdout, "heuristics:    ", gridcma.HeuristicNames())
		fmt.Fprintln(stdout, "instances:     ", gridcma.BenchmarkInstanceNames())
		return nil
	}

	// Resolve every algorithm before any work: an unknown name is a bad
	// command line. A constructive heuristic needs no scheduler.
	h, herr := gridcma.Heuristic(*alg)
	heuristic := *race == "" && herr == nil
	var names []string
	switch {
	case *race != "":
		names = strings.Split(*race, ",")
	case !heuristic:
		names = []string{*alg}
	}
	algs := make([]gridcma.Scheduler, len(names))
	for i, n := range names {
		if algs[i], err = buildAlgorithm(strings.TrimSpace(n), *cfgPath); err != nil {
			return err
		}
	}

	in, err := load()
	if err != nil {
		return err
	}

	// Constructive heuristics are deterministic one-shots.
	if heuristic {
		s := h(in)
		st := schedule.NewState(in, s)
		fmt.Fprintf(stdout, "instance  %s (%d jobs × %d machines)\n", in.Name, in.Jobs, in.Machs)
		fmt.Fprintf(stdout, "algorithm %s\n", *alg)
		fmt.Fprintf(stdout, "makespan  %.3f\nflowtime  %.3f\nfitness   %.3f\n",
			st.Makespan(), st.Flowtime(), schedule.DefaultObjective.Of(st))
		return finish(stdout, st, *gantt, *export)
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

	fmt.Fprintf(stdout, "instance  %s (%d jobs × %d machines)\n", in.Name, in.Jobs, in.Machs)
	if *race != "" {
		return runRace(ctx, stdout, in, names, algs, opts, *seed, *gantt, *export)
	}
	a := algs[0]

	var obs gridcma.Observer
	if *verbose {
		obs = func(p gridcma.Progress) {
			fmt.Fprintf(stdout, "  iter %4d  %8.2fs  fitness %.3f  makespan %.3f\n",
				p.Iteration, p.Elapsed.Seconds(), p.Fitness, p.Makespan)
		}
	}

	fmt.Fprintf(stdout, "algorithm %s, %d run(s), budget %s\n", a.Name(), *runs, budgetString(budget))
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
			return err
		}
		if res.Best != nil {
			results = append(results, res)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(stdout, "interrupted — reporting best so far")
			break
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("no completed runs")
	}
	best := results[0]
	ms := make([]float64, len(results))
	for i, r := range results {
		ms[i] = r.Makespan
		if r.Better(best) {
			best = r
		}
	}
	fmt.Fprintf(stdout, "elapsed   %.2fs (%d logical CPUs)\n", time.Since(start).Seconds(), runtime.NumCPU())
	fmt.Fprintf(stdout, "best makespan  %.3f\nbest flowtime  %.3f\nbest fitness   %.3f\n",
		best.Makespan, best.Flowtime, best.Fitness)
	if len(results) > 1 {
		sum := stats.Summarize(ms)
		fmt.Fprintf(stdout, "makespan over %d runs: mean %.3f std %.3f (%.2f%%)\n",
			len(results), sum.Mean, sum.Std, 100*sum.RelStd())
	}
	return finish(stdout, schedule.NewState(in, best.Best), *gantt, *export)
}

// runRace races a portfolio of registry algorithms and reports the winner.
func runRace(ctx context.Context, stdout io.Writer, in *gridcma.Instance, names []string, algs []gridcma.Scheduler, opts []gridcma.RunOption, seed uint64, gantt bool, export string) error {
	fmt.Fprintf(stdout, "racing    %s\n", strings.Join(names, " vs "))
	start := time.Now()
	out, err := gridcma.Race(ctx, in, algs, append(opts, gridcma.WithSeed(seed))...)
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if out.Best.Best == nil {
		return fmt.Errorf("race interrupted before any contender finished an iteration")
	}
	for i, r := range out.Results {
		marker := "  "
		if i == out.Winner {
			marker = "* "
		}
		fmt.Fprintf(stdout, "%s%-14s fitness %14.3f  makespan %14.3f  %s\n",
			marker, strings.TrimSpace(names[i]), r.Fitness, r.Makespan, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "elapsed   %.2fs\n", time.Since(start).Seconds())
	return finish(stdout, schedule.NewState(in, out.Best.Best), gantt, export)
}

// finish handles the optional gantt rendering and CSV export of a final
// evaluated schedule.
func finish(stdout io.Writer, st *schedule.State, gantt bool, export string) error {
	if gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, st.Gantt(64))
		_, _, imb := st.LoadSummary()
		fmt.Fprintf(stdout, "load imbalance (max/mean completion): %.3f\n", imb)
	}
	if export != "" {
		if err := writeFile(export, st.WriteAssignments); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "assignments written to", export)
	}
	return nil
}

// buildAlgorithm maps a CLI name to a configured scheduler via the
// registry; -config swaps in an explicit cMA configuration.
func buildAlgorithm(name, cfgPath string) (gridcma.Scheduler, error) {
	if cfgPath != "" {
		cfg, err := config.Load(cfgPath)
		if err != nil {
			return nil, err
		}
		return gridcma.NewCMA(cfg)
	}
	a, err := gridcma.New(name)
	if err != nil {
		return nil, badUsage{err}
	}
	return a, nil
}

func budgetString(b gridcma.Budget) string {
	if b.MaxTime > 0 {
		return b.MaxTime.String()
	}
	return fmt.Sprintf("%d iterations", b.MaxIterations)
}

// runGen writes ETC instances: the solve's instance selection, a
// custom-size Braun instance of a class, or the whole benchmark suite.
func runGen(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var src source
	src.flags(fs)
	var (
		class = fs.String("class", "", "class prefix (e.g. u_c_hihi) for custom generation")
		k     = fs.Int("k", 0, "trial index for -class")
		jobs  = fs.Int("jobs", 0, "number of jobs (default 512)")
		machs = fs.Int("machs", 0, "number of machines (default 16)")
		seed  = fs.Uint64("seed", 1, "RNG seed for -class")
		out   = fs.String("o", "", "output file (default stdout)")
		all   = fs.Bool("all", false, "generate the full 12-instance benchmark suite")
		dir   = fs.String("dir", ".", "output directory for -all")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if count(*all, *class != "", src.name != "", src.file != "", src.gen != "") != 1 {
		return usagef("need exactly one of -instance, -file, -gen, -class and -all (see -h)")
	}
	load, err := src.loader()
	if err != nil {
		return err
	}
	if *class != "" {
		c, _, err := gridcma.ParseInstanceClass(*class + ".0")
		var in *gridcma.Instance
		if err == nil {
			in, err = gridcma.GenerateInstance(c, *jobs, *machs, *seed)
		}
		if err != nil {
			return badUsage{err}
		}
		in.Name = fmt.Sprintf("%s.%d", *class, *k)
		load = func() (*gridcma.Instance, error) { return in, nil }
	}

	if *all {
		for _, n := range gridcma.BenchmarkInstanceNames() {
			in, err := gridcma.BenchmarkInstance(n)
			if err != nil {
				return err
			}
			path := filepath.Join(*dir, n+".etc")
			if err := etc.WriteFile(path, in); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
		return nil
	}
	in, err := load()
	if err != nil {
		return err
	}
	if *out == "" {
		return gridcma.WriteInstance(stdout, in)
	}
	if err := etc.WriteFile(*out, in); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", *out)
	return nil
}

// runSim runs the discrete-event dynamic grid simulation under one batch
// policy, or under the cMA and every heuristic side by side.
func runSim(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	cfg := gridcma.DefaultSimConfig()
	fs.Float64Var(&cfg.Horizon, "horizon", 1000, "simulated time horizon")
	fs.Float64Var(&cfg.ArrivalRate, "rate", 1.0, "job arrival rate")
	fs.IntVar(&cfg.InitialMachines, "machines", 16, "initial machine count")
	fs.Float64Var(&cfg.ActivationInterval, "interval", 25, "scheduler activation interval")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "simulation seed")
	var (
		policy   = fs.String("policy", "cma", "batch policy: a registry algorithm (cma, tabu, ...) or a heuristic name (minmin, olb, ...)")
		churn    = fs.Float64("churn", 0.002, "machine join/leave rate")
		cmaIters = fs.Int("cma-iters", 10, "metaheuristic iterations per activation")
		compare  = fs.Bool("compare", false, "compare cma against all heuristics")
		traceOut = fs.String("trace-out", "", "write the simulation's event stream in gridd's event-log format")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg.JoinRate, cfg.LeaveRate = *churn, *churn
	switch {
	case *cmaIters < 1:
		return usagef("-cma-iters %d: an activation needs at least one iteration", *cmaIters)
	case *compare && *traceOut != "":
		return usagef("-trace-out applies to one policy, not to -compare")
	}
	if err := cfg.Validate(); err != nil {
		return badUsage{err}
	}
	names := []string{*policy}
	if *compare {
		names = append([]string{"cma"}, gridcma.HeuristicNames()...)
		fmt.Fprintf(stdout, "%-12s %9s %9s %11s %9s %9s\n",
			"policy", "completed", "restarts", "response", "wait", "util")
	}
	for _, n := range names {
		p, err := buildPolicy(n, *cmaIters)
		if err != nil {
			return err
		}
		m, err := simulate(cfg, p, *traceOut)
		if err != nil {
			return err
		}
		if *compare {
			fmt.Fprintf(stdout, "%-12s %4d/%4d %9d %11.2f %9.2f %8.1f%%\n",
				n, m.JobsCompleted, m.JobsArrived, m.JobsRestarted,
				m.MeanResponse, m.MeanWait, 100*m.Utilization)
			continue
		}
		if *traceOut != "" {
			fmt.Fprintf(stdout, "event trace       %s\n", *traceOut)
		}
		fmt.Fprintf(stdout, "policy            %s\n", p.Name())
		fmt.Fprintf(stdout, "jobs              %d arrived, %d completed, %d restarted\n",
			m.JobsArrived, m.JobsCompleted, m.JobsRestarted)
		fmt.Fprintf(stdout, "machines          %d joined, %d left\n", m.MachinesJoined, m.MachinesLeft)
		fmt.Fprintf(stdout, "activations       %d\n", m.Activations)
		fmt.Fprintf(stdout, "mean response     %.2f\n", m.MeanResponse)
		fmt.Fprintf(stdout, "mean wait         %.2f\n", m.MeanWait)
		fmt.Fprintf(stdout, "utilization       %.1f%%\n", 100*m.Utilization)
		fmt.Fprintf(stdout, "last completion   %.2f\n", m.Makespan)
	}
	return nil
}

// buildPolicy maps a name to a dynamic policy: registry metaheuristics
// are wrapped by BatchPolicy (the Scheduler contract), heuristics run as
// deterministic one-shots.
func buildPolicy(name string, iters int) (gridcma.SimPolicy, error) {
	if name == "cma" {
		// Activation batches are small and frequent; the sampled LMCTS
		// keeps per-activation latency low — the "very short time"
		// constraint of the paper's dynamic setting.
		cfg := gridcma.DefaultCMAConfig()
		ls, err := gridcma.LocalSearch("LMCTS-sampled")
		if err != nil {
			return nil, err
		}
		cfg.LocalSearch = ls
		sched, err := gridcma.NewCMA(cfg)
		if err != nil {
			return nil, err
		}
		return gridcma.BatchPolicy("cma", sched, gridcma.Budget{MaxIterations: iters})
	}
	if p, err := gridcma.HeuristicPolicy(name); err == nil {
		return p, nil
	}
	sched, err := gridcma.New(name)
	if err != nil {
		return nil, usagef("unknown policy %q: not a registry algorithm (%v) or a heuristic (%v)",
			name, gridcma.Algorithms(), gridcma.HeuristicNames())
	}
	return gridcma.BatchPolicy(name, sched, gridcma.Budget{MaxIterations: iters})
}

// simulate runs the simulation. With a trace path, a Record hook streams
// its transitions there as a sequentially stamped gridd event log — the
// same format `gridd -log` appends and replays, so a simulated workload
// can be fed through the daemon verbatim.
func simulate(cfg gridcma.SimConfig, p gridcma.SimPolicy, trace string) (m gridcma.SimMetrics, err error) {
	if trace == "" {
		return gridcma.Simulate(cfg, p)
	}
	err = writeFile(trace, func(f io.Writer) error {
		w := eventlog.NewWriter(f)
		var werr error
		cfg.Record = func(e eventlog.Event) {
			if werr == nil {
				_, werr = w.Append(e)
			}
		}
		var serr error
		if m, serr = gridcma.Simulate(cfg, p); serr != nil {
			return serr
		}
		if werr != nil {
			return werr
		}
		return w.Flush()
	})
	return m, err
}

// experimentIDs lists every -run value; frontier is opt-in only and never
// part of "all".
var experimentIDs = []string{"all", "table1", "table2", "table3", "table4", "table5",
	"fig2", "fig3", "fig4", "fig5", "robustness", "heuristics", "frontier", "takeover"}

// runExperiments regenerates the tables and figures of the paper's
// evaluation, printing each and optionally writing it as CSV.
func runExperiments(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		what    = fs.String("run", "all", "which experiment to run")
		full    = fs.Bool("full", false, "use the paper's protocol: 90s wall-clock × 10 runs")
		iters   = fs.Int("iters", 40, "cMA iteration budget (ignored with -full)")
		runs    = fs.Int("runs", 3, "independent runs per algorithm/instance (ignored with -full)")
		seed    = fs.Uint64("seed", 1, "base RNG seed")
		maxTime = fs.Duration("time", 0, "wall-clock budget per run (overrides -iters)")
		csvDir  = fs.String("csv", "", "directory to also write CSV output into")
		specs   = fs.String("specs", "", "comma-separated GenSpec ladder for -run frontier (e.g. 8192x128:c_hihi:s1,32768x256)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	o := experiments.Options{Budget: gridcma.Budget{MaxIterations: *iters}, Runs: *runs, Seed: *seed}
	if *maxTime > 0 {
		o.Budget = gridcma.Budget{MaxTime: *maxTime}
	}
	if *full {
		o = experiments.Full()
		o.Seed = *seed
	}
	var ladder []string
	for _, g := range strings.Split(*specs, ",") {
		if g = strings.TrimSpace(g); g == "" {
			continue
		}
		if _, err := etc.ParseGenSpec(g); err != nil {
			return badUsage{err}
		}
		ladder = append(ladder, g)
	}
	switch {
	case !slices.Contains(experimentIDs, *what):
		return usagef("unknown experiment %q (want one of %s)", *what, strings.Join(experimentIDs, " "))
	case *maxTime < 0:
		return usagef("negative -time %s", *maxTime)
	case *specs != "" && *what != "frontier":
		return usagef("-specs applies only to -run frontier")
	}
	if err := o.Validate(); err != nil {
		return badUsage{err}
	}
	// Ctrl-C cancels every in-flight run at its next budget check: the
	// context rides inside the budget down to each engine loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	o.Budget = o.Budget.WithContext(ctx)

	// The first failure, an experiment's or a CSV write's, stops the
	// experiments that follow it.
	var werr error
	runner := func(id string) bool { return werr == nil && (*what == "all" || *what == id) }
	csv := func(name, label string, headers []string, rows [][]string) {
		if *csvDir != "" && werr == nil {
			path := filepath.Join(*csvDir, name+".csv")
			if werr = writeFile(path, func(w io.Writer) error { return experiments.WriteCSV(w, headers, rows) }); werr == nil {
				fmt.Fprintln(stdout, label, "written to", path)
			}
		}
	}
	emit := func(id, title string, headers []string, rows [][]string, err error) {
		if werr = err; err != nil {
			return
		}
		fmt.Fprintf(stdout, "== %s — %s ==\n", id, title)
		fmt.Fprintln(stdout, experiments.FormatTable(headers, rows))
		csv(id, "csv", headers, rows)
		fmt.Fprintln(stdout)
	}

	start := time.Now()
	if runner("table1") {
		h, c := experiments.Table1Cells(experiments.Table1())
		emit("table1", "tuned cMA configuration", h, c, nil)
	}
	if runner("table2") {
		rows, err := experiments.Table2(o)
		h, c := experiments.Table2Cells(rows)
		emit("table2", "best makespan: Braun et al. GA vs cMA", h, c, err)
	}
	if runner("table3") {
		rows, err := experiments.Table3(o)
		h, c := experiments.Table3Cells(rows)
		emit("table3", "best makespan: Carretero–Xhafa GA, Struggle GA vs cMA", h, c, err)
	}
	if runner("table4") {
		rows, err := experiments.Table4(o)
		h, c := experiments.Table4Cells(rows)
		emit("table4", "flowtime: LJFR-SJFR vs cMA", h, c, err)
	}
	if runner("table5") {
		rows, err := experiments.Table5(o)
		h, c := experiments.Table5Cells(rows)
		emit("table5", "flowtime: Struggle GA vs cMA", h, c, err)
	}
	for _, fig := range []struct {
		id, title string
		series    func(experiments.Options) ([]experiments.Series, error)
	}{
		{"fig2", "makespan reduction per local search method", experiments.Figure2},
		{"fig3", "makespan reduction per neighborhood pattern", experiments.Figure3},
		{"fig4", "makespan reduction per tournament size", experiments.Figure4},
		{"fig5", "makespan reduction per sweep order", experiments.Figure5},
	} {
		if !runner(fig.id) {
			continue
		}
		series, err := fig.series(o)
		hs, cs := experiments.SeriesSummaryCells(series)
		emit(fig.id, fig.title, hs, cs, err)
		hl, cl := experiments.SeriesCells(series)
		csv(fig.id+"_series", "series csv", hl, cl)
	}
	if runner("robustness") {
		rows, err := experiments.Robustness(o)
		h, c := experiments.RobustnessCells(rows)
		emit("robustness", "cMA makespan spread across runs (§5.1)", h, c, err)
	}
	if runner("heuristics") {
		h, c := experiments.HeuristicsCells(experiments.HeuristicsTable())
		emit("heuristics", "constructive heuristic makespans (baseline panorama)", h, c, nil)
	}
	if *what == "frontier" { // opt-in only: generated large instances, not the paper's suite
		rows, err := experiments.Frontier(o, ladder)
		h, c := experiments.FrontierCells(rows)
		emit("frontier", "tuned cMA on synthetic large instances (scaling ladder)", h, c, err)
	}
	if runner("takeover") {
		curves, err := experiments.TakeoverStudy(*seed)
		h, c := experiments.TakeoverCells(curves)
		emit("takeover", "selection pressure per neighborhood (takeover analysis)", h, c, err)
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(stdout, "total wall time: %.1fs\n", time.Since(start).Seconds())
	return nil
}

// writeFile creates path and fills it with write, reporting the Close
// error too: a failed flush is a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
