package gridcma_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"gridcma"
)

// The smallest end-to-end use of the library: schedule one Braun
// benchmark instance with the paper's tuned cellular memetic algorithm,
// built by registry name, and compare it against the LJFR-SJFR seed
// heuristic. An iteration budget makes the run deterministic in its seed;
// WithMaxTime bounds it by wall clock instead, and cancelling the context
// stops it early.
func ExampleNew() {
	// The 12 benchmark instances regenerate deterministically by name.
	in, err := gridcma.BenchmarkInstance("u_c_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %s: %d jobs × %d machines\n", in.Name, in.Jobs, in.Machs)

	// Baseline: the constructive heuristic the paper seeds with.
	ljfr, err := gridcma.Heuristic("ljfr-sjfr")
	if err != nil {
		log.Fatal(err)
	}
	hm, hf, hfit := gridcma.Evaluate(in, ljfr(in))
	fmt.Printf("LJFR-SJFR  makespan %12.1f  flowtime %16.1f  fitness %14.1f\n", hm, hf, hfit)

	// The paper's tuned cMA (Table 1), by registry name.
	sched, err := gridcma.New("cma")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.Run(context.Background(), in, gridcma.WithMaxIterations(20), gridcma.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cMA        makespan %12.1f  flowtime %16.1f  fitness %14.1f\n",
		res.Makespan, res.Flowtime, res.Fitness)
	fmt.Printf("cMA improved makespan by %.1f%% and flowtime by %.1f%% over LJFR-SJFR\n",
		100*(hm-res.Makespan)/hm, 100*(hf-res.Flowtime)/hf)
	fmt.Printf("(%d iterations, %d fitness evaluations)\n", res.Iterations, res.Evals)
	// Output:
	// instance u_c_hihi.0: 512 jobs × 16 machines
	// LJFR-SJFR  makespan   13979389.7  flowtime     1988223749.9  fitness     41550538.4
	// cMA        makespan    7578470.9  flowtime     1117779512.9  fitness     23149158.1
	// cMA improved makespan by 45.8% and flowtime by 43.8% over LJFR-SJFR
	// (20 iterations, 765 fitness evaluations)
}

// Every scheduler in the library — the constructive heuristics and the
// whole metaheuristic registry — on one benchmark instance, ranked by
// fitness: the "which scheduler should I use" tour. The metaheuristics
// all go through one RunBatch call, which fans them out over a worker
// pool with deterministic per-task seeds. An iteration is a generation,
// a sweep or a single steady-state step depending on the engine, so at
// 40 iterations the steady-state GAs have not yet left their LJFR-SJFR
// seed.
func ExampleRunBatch() {
	in, err := gridcma.BenchmarkInstance("u_s_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	type row struct {
		name    string
		fitness float64
	}
	var rows []row
	for _, name := range gridcma.HeuristicNames() {
		h, err := gridcma.Heuristic(name)
		if err != nil {
			log.Fatal(err)
		}
		_, _, fit := gridcma.Evaluate(in, h(in))
		rows = append(rows, row{name, fit})
	}

	// The built-in registry; gridcma.Algorithms also lists any scheduler a
	// program registers itself.
	var algs []gridcma.Scheduler
	for _, name := range []string{"braun-ga", "cma", "cma-par", "cma-sync", "gsa", "island",
		"sa", "sa-sweep", "ss-ga", "struggle-ga", "tabu"} {
		a, err := gridcma.New(name)
		if err != nil {
			log.Fatal(err)
		}
		algs = append(algs, a)
	}
	batch, err := gridcma.RunBatch(context.Background(), gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: algs,
		Budget:     gridcma.Budget{MaxIterations: 40},
		Repeats:    1,
		BaseSeed:   1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range batch {
		rows = append(rows, row{b.Algorithm, b.Result.Fitness})
	}

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].fitness < rows[j].fitness })
	for _, r := range rows {
		fmt.Printf("%-12s %12.1f\n", r.name, r.fitness)
	}
	// Output:
	// tabu           12120586.2
	// braun-ga       12181746.7
	// sa-sweep       12366048.2
	// minmin         12414219.0
	// duplex         12414219.0
	// gsa            12414219.0
	// sa             12414219.0
	// island         12742318.9
	// cma            13355377.2
	// cma-par        13757105.9
	// sufferage      16086581.3
	// cma-sync       18848890.2
	// kpb            19255071.7
	// mct            19604524.7
	// maxmin         26081362.3
	// met            37228584.5
	// ljfr-sjfr      59102085.1
	// ss-ga          59102085.1
	// struggle-ga    59102085.1
	// olb            64313478.2
}

// drainCritical is a custom local search: each iteration it takes the
// longest job of the current makespan machine and moves it to the machine
// that minimises the resulting completion time, keeping the move only if
// the scalarised fitness improves.
type drainCritical struct{}

func (drainCritical) Name() string { return "DrainCritical" }

func (drainCritical) Improve(st *gridcma.State, o gridcma.Objective, iters int, r *gridcma.RNG) {
	in := st.Instance()
	for k := 0; k < iters; k++ {
		crit := st.MakespanMachine()
		jobs := st.JobsOn(crit)
		if len(jobs) == 0 {
			return
		}
		j := int(jobs[len(jobs)-1]) // SPT order: last = longest on machine
		bestTo, bestC := crit, st.Completion(crit)
		for m := 0; m < in.Machs; m++ {
			if m == crit {
				continue
			}
			if c := st.Completion(m) + in.At(j, m); c < bestC {
				bestTo, bestC = m, c
			}
		}
		if bestTo == crit {
			return // no machine can absorb the job profitably
		}
		before := o.Of(st)
		st.Move(j, bestTo)
		if o.Of(st) >= before {
			st.Move(j, crit)
			return
		}
	}
}

// The cellular engine accepts any LocalSearchMethod: a user-defined
// memetic component, here the drainCritical move above, plugs in and
// runs against the paper's tuned LMCTS on an equal budget — the intended
// extension point for schedulers with domain-specific moves.
func ExampleNewCMA() {
	in, err := gridcma.BenchmarkInstance("u_i_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	lmcts, err := gridcma.LocalSearch("LMCTS")
	if err != nil {
		log.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		ls    gridcma.LocalSearchMethod
	}{
		{"tuned LMCTS (paper)", lmcts},
		{"custom DrainCritical", drainCritical{}},
	} {
		cfg := gridcma.DefaultCMAConfig()
		cfg.LocalSearch = tc.ls
		sched, err := gridcma.NewCMA(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sched.Run(context.Background(), in, gridcma.WithMaxIterations(10), gridcma.WithSeed(7))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s makespan %12.1f  fitness %14.1f (%d evals)\n",
			tc.label, res.Makespan, res.Fitness, res.Evals)
	}
	// Output:
	// tuned LMCTS (paper)    makespan    3379126.3  fitness      9032581.7 (395 evals)
	// custom DrainCritical   makespan    9328423.9  fitness     28714349.1 (395 evals)
}

// The paper's deployment story: a real grid never sees a static batch.
// Jobs arrive continuously and machines come and go, and the batch cMA
// runs periodically over the jobs that arrived since its last
// activation. The discrete-event simulator contrasts the cMA policy with
// Min-Min, opportunistic load balancing and LJFR-SJFR under machine
// churn; lower response and wait are better.
func ExampleSimulate() {
	cfg := gridcma.DefaultSimConfig()
	cfg.Horizon = 2000
	cfg.ArrivalRate = 1.5 // a loaded grid
	cfg.JoinRate, cfg.LeaveRate = 0.005, 0.005

	// The cMA as a dynamic policy: a short iteration budget per
	// activation keeps each planning step "very short" (paper §1).
	cmaCfg := gridcma.DefaultCMAConfig()
	ls, err := gridcma.LocalSearch("LMCTS-sampled")
	if err != nil {
		log.Fatal(err)
	}
	cmaCfg.LocalSearch = ls
	sched, err := gridcma.NewCMA(cmaCfg)
	if err != nil {
		log.Fatal(err)
	}
	// BatchPolicy takes any Scheduler — dynamic-grid policies and batch
	// runs share the one interface.
	cmaPolicy, err := gridcma.BatchPolicy("cMA", sched, gridcma.Budget{MaxIterations: 10})
	if err != nil {
		log.Fatal(err)
	}
	policies := []gridcma.SimPolicy{cmaPolicy}
	for _, h := range []string{"minmin", "olb", "ljfr-sjfr"} {
		p, err := gridcma.HeuristicPolicy(h)
		if err != nil {
			log.Fatal(err)
		}
		policies = append(policies, p)
	}

	fmt.Printf("%-10s %10s %9s %11s %9s %7s\n", "policy", "completed", "restarts", "response", "wait", "util")
	for _, p := range policies {
		m, err := gridcma.Simulate(cfg, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %5d/%4d %9d %11.2f %9.2f %6.1f%%\n",
			p.Name(), m.JobsCompleted, m.JobsArrived, m.JobsRestarted,
			m.MeanResponse, m.MeanWait, 100*m.Utilization)
	}
	// Output:
	// policy      completed  restarts    response      wait    util
	// cMA         2936/2970         3       26.45     16.30   76.8%
	// minmin      2934/2970         4       26.77     17.11   73.0%
	// olb         2928/2970         3       31.58     19.94   87.9%
	// ljfr-sjfr   2929/2970         3       30.60     18.95   88.0%
}

// The paper's future-work direction: instead of collapsing makespan and
// flowtime into one weighted fitness, return a front of non-dominated
// schedules. The λ-sweep runs the paper's cMA unchanged at each weight
// of a grid and merges the best schedules into one Pareto front; the
// hypervolume measures how much of the objective space the front
// dominates (higher is better).
func ExampleLambdaSweep() {
	in, err := gridcma.BenchmarkInstance("u_i_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	front, err := gridcma.LambdaSweep(in, gridcma.DefaultCMAConfig(),
		[]float64{0, 0.25, 0.5, 0.75, 1}, gridcma.Budget{MaxIterations: 30}, 1, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("λ-sweep front: %d non-dominated schedules from 5 cMA runs\n", front.Len())
	for _, s := range front.Solutions() {
		fmt.Printf("%14.1f %18.1f\n", s.Obj.Makespan, s.Obj.Flowtime)
	}
	ref := gridcma.ParetoVec{Makespan: 1e9, Flowtime: 1e12}
	fmt.Printf("hypervolume: %.4g\n", front.Hypervolume(ref))
	// Output:
	// λ-sweep front: 2 non-dominated schedules from 5 cMA runs
	//      2877633.4        350029774.8
	//      2943104.9        341303309.9
	// hypervolume: 9.968e+20
}

// A portfolio race: several schedulers on the same instance under a hard
// planning deadline, hedging against any single algorithm stalling. The
// first contender to finish its budget ends the race and the others stop
// at their next budget check, so how far each loser got depends on
// timing; the best result across the portfolio wins.
func ExampleRace() {
	in, err := gridcma.BenchmarkInstance("u_i_hihi.0")
	if err != nil {
		log.Fatal(err)
	}
	names := []string{"cma", "struggle-ga", "sa", "tabu"}
	var algs []gridcma.Scheduler
	for _, n := range names {
		a, err := gridcma.New(n)
		if err != nil {
			log.Fatal(err)
		}
		algs = append(algs, a)
	}
	out, err := gridcma.Race(context.Background(), in, algs, gridcma.WithMaxIterations(20), gridcma.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	best := true
	for _, r := range out.Results {
		best = best && !r.Better(out.Best)
	}
	fmt.Println("contenders:", len(out.Results))
	fmt.Println("winner holds the best fitness:", best && out.Results[out.Winner].Fitness == out.Best.Fitness)
	fmt.Println("winning schedule is valid:", out.Best.Best.Validate(in) == nil)
	// Output:
	// contenders: 4
	// winner holds the best fitness: true
	// winning schedule is valid: true
}
