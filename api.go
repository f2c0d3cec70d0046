package gridcma

import (
	"cmp"
	"fmt"
	"io"

	"gridcma/internal/cell"
	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/ga"
	"gridcma/internal/gridsim"
	"gridcma/internal/heuristics"
	"gridcma/internal/island"
	"gridcma/internal/island/dist"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/pareto"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/sa"
	"gridcma/internal/schedule"
	"gridcma/internal/tabu"
)

// Core problem types.
type (
	// Instance is an ETC scheduling problem: an expected-time matrix plus
	// machine ready times.
	Instance = etc.Instance
	// InstanceClass identifies one of the 12 Braun benchmark classes.
	InstanceClass = etc.Class
	// Schedule maps each job to a machine.
	Schedule = schedule.Schedule
	// State is the incremental evaluator of a schedule.
	State = schedule.State
	// Objective is the scalarised bi-objective fitness
	// λ·makespan + (1−λ)·mean_flowtime.
	Objective = schedule.Objective
)

// Run vocabulary shared by every algorithm.
type (
	// Budget bounds a run by wall-clock time and/or iterations.
	Budget = run.Budget
	// Result is the outcome of one run.
	Result = run.Result
	// Progress is one observation of a running search.
	Progress = run.Progress
	// Observer receives progress samples, when WithObserver says.
	Observer = run.Observer
)

// Algorithm configuration types.
type (
	// CMAConfig is the full configuration of the cellular memetic
	// algorithm (the paper's Table 1 lives in DefaultCMAConfig).
	CMAConfig = cma.Config
	// GAVariant selects Braun / steady-state / Struggle GA.
	GAVariant = ga.Variant
	// LocalSearchMethod is a bounded improvement procedure (LM, SLM,
	// LMCTS, ...). Implement it to plug a custom memetic component into
	// the cMA (see ExampleNewCMA).
	LocalSearchMethod = localsearch.Method
	// Selector, Crossover and Mutator are the variation operators.
	Selector  = operators.Selector
	Crossover = operators.Crossover
	Mutator   = operators.Mutator
	// RNG is the deterministic random source used across the library.
	RNG = rng.Source
)

// GA variants.
const (
	BraunGA       = ga.Braun
	SteadyStateGA = ga.SteadyState
	StruggleGA    = ga.Struggle
	// GSAGA is the genetic simulated annealing hybrid.
	GSAGA = ga.GSA
)

// Neighborhood patterns and sweep orders of the cellular grid.
const (
	L5        = cell.L5
	L9        = cell.L9
	C9        = cell.C9
	C13       = cell.C13
	Panmictic = cell.Panmictic

	FLS = cell.FLS
	FRS = cell.FRS
	NRS = cell.NRS
)

// DefaultLambda is the tuned makespan weight (0.75).
const DefaultLambda = schedule.DefaultLambda

// BenchmarkInstance regenerates one of the 12 Braun benchmark instances by
// name (e.g. "u_c_hihi.0"); the same name always yields the same instance.
func BenchmarkInstance(name string) (*Instance, error) {
	return etc.GenerateByName(name)
}

// BenchmarkInstanceNames lists the 12 instances of the paper's tables in
// publication order.
func BenchmarkInstanceNames() []string {
	var names []string
	for _, c := range etc.AllClasses() {
		names = append(names, c.Name(0))
	}
	return names
}

// GenerateInstance builds a fresh instance of a class with explicit
// dimensions and seed (zero dimensions default to the benchmark's 512×16).
// Negative dimensions, or a matrix too large to allocate, are an error.
func GenerateInstance(class InstanceClass, jobs, machs int, seed uint64) (*Instance, error) {
	jobs, machs = cmp.Or(jobs, etc.BenchmarkJobs), cmp.Or(machs, etc.BenchmarkMachs)
	if err := etc.CheckDims(jobs, machs); err != nil {
		return nil, err
	}
	return etc.Generate(class, 0, etc.GenerateOptions{Jobs: jobs, Machs: machs, Seed: seed}), nil
}

// ParseInstanceClass parses a canonical instance name ("u_c_hihi.0")
// into its benchmark class and trial index.
func ParseInstanceClass(name string) (InstanceClass, int, error) {
	return etc.ParseClass(name)
}

// ReadInstance parses an instance in the benchmark text format.
func ReadInstance(r io.Reader) (*Instance, error) { return etc.Read(r) }

// WriteInstance serialises an instance in the benchmark text format.
func WriteInstance(w io.Writer, in *Instance) error { return etc.Write(w, in) }

// DefaultCMAConfig returns the paper's tuned configuration (Table 1).
func DefaultCMAConfig() CMAConfig { return cma.DefaultConfig() }

// NewCMA builds the cellular memetic scheduler from an explicit
// configuration — the path for customised cMAs (operators, grids, local
// search). For the stock paper-tuned algorithms use New("cma") instead.
// WithWorkers at Run time overrides cfg.Workers, switching between the
// sequential and the partitioned parallel engine per call.
func NewCMA(cfg CMAConfig) (Scheduler, error) {
	return newEngineScheduler(schedulerName(cfg), func(p buildParams) (engineRunner, error) {
		c := cfg
		c.Objective = objectiveFor(p.lambdaSet, p.lambda, c.Objective)
		if p.workersSet {
			c.Workers = p.workers
		}
		return cma.New(c)
	})
}

func schedulerName(cfg CMAConfig) string {
	switch {
	case cfg.Synchronous:
		return "cma-sync"
	case cfg.Workers > 0:
		return "cma-par"
	default:
		return "cma"
	}
}

// NewGA builds one of the baseline genetic algorithms with its published
// configuration.
func NewGA(v GAVariant) (Scheduler, error) {
	return newGAScheduler(v.String(), v)
}

// newGAScheduler is the shared GA builder: the facade names schedulers by
// the variant's display name, the registry by its kebab-case key.
func newGAScheduler(name string, v GAVariant) (Scheduler, error) {
	return newEngineScheduler(name, func(p buildParams) (engineRunner, error) {
		cfg := ga.NewConfig(v)
		cfg.Objective = objectiveFor(p.lambdaSet, p.lambda, cfg.Objective)
		return ga.New(cfg)
	})
}

// NewSA builds the simulated annealing baseline.
func NewSA() (Scheduler, error) {
	return newEngineScheduler("sa", func(p buildParams) (engineRunner, error) {
		cfg := sa.DefaultConfig()
		cfg.Objective = objectiveFor(p.lambdaSet, p.lambda, cfg.Objective)
		return sa.New(cfg)
	})
}

// NewTabu builds the tabu search baseline.
func NewTabu() (Scheduler, error) {
	return newEngineScheduler("tabu", func(p buildParams) (engineRunner, error) {
		cfg := tabu.DefaultConfig()
		cfg.Objective = objectiveFor(p.lambdaSet, p.lambda, cfg.Objective)
		return tabu.New(cfg)
	})
}

// NewSASweep builds the sweep-native annealer: each proposal step draws a
// job and scores every target machine in one batched sweep, then
// Metropolis-tests the steepest target. It walks a different (greedier)
// trajectory than NewSA, which is why it registers under its own name
// ("sa-sweep") and the classic annealer's trajectory stays frozen.
func NewSASweep() (Scheduler, error) {
	return newEngineScheduler("sa-sweep", func(p buildParams) (engineRunner, error) {
		cfg := sa.DefaultConfig()
		cfg.SweepProposals = true
		cfg.Objective = objectiveFor(p.lambdaSet, p.lambda, cfg.Objective)
		return sa.New(cfg)
	})
}

// Heuristic returns a constructive heuristic by name: "ljfr-sjfr",
// "minmin", "maxmin", "duplex", "sufferage", "mct", "met" or "olb".
func Heuristic(name string) (func(*Instance) Schedule, error) {
	return heuristics.ByName(name)
}

// HeuristicNames lists the available constructive heuristics.
func HeuristicNames() []string { return heuristics.Names() }

// LocalSearch resolves a local search method by acronym ("LM", "SLM",
// "LMCTS", "LMCTS-sampled", "VND", "none").
func LocalSearch(name string) (LocalSearchMethod, error) { return localsearch.ByName(name) }

// Evaluate computes makespan, flowtime and the default scalarised fitness
// of a schedule.
func Evaluate(in *Instance, s Schedule) (makespan, flowtime, fitness float64) {
	st := schedule.NewState(in, s)
	return st.Makespan(), st.Flowtime(), schedule.DefaultObjective.Of(st)
}

// NewState builds the incremental evaluator for s on in.
func NewState(in *Instance, s Schedule) *State { return schedule.NewState(in, s) }

// NewRNG returns a deterministic random source.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Multi-objective extension (the paper's future-work direction).
type (
	// ParetoFront is a bounded archive of non-dominated
	// (makespan, flowtime) solutions.
	ParetoFront = pareto.Front
	// ParetoVec is one point in objective space.
	ParetoVec = pareto.Vec
)

// LambdaSweep runs the scalarised cMA across a λ grid and merges the
// results into one non-dominated front. The budget bounds each λ's run;
// it must be bounded and not negative, as for BatchPolicy.
func LambdaSweep(in *Instance, base CMAConfig, lambdas []float64, budget Budget, seed uint64, capacity int) (*ParetoFront, error) {
	if err := checkBudget("lambda sweep", budget); err != nil {
		return nil, err
	}
	return pareto.LambdaSweep(in, base, lambdas, budget, seed, capacity)
}

// Island (coarse-grained) model.
type (
	// IslandConfig configures the ring-migration island model.
	IslandConfig = island.Config
)

// DefaultIslandConfig returns 4 islands exchanging 2 migrants every 5
// iterations.
func DefaultIslandConfig() IslandConfig { return island.DefaultConfig() }

// NewIsland builds the parallel island-model scheduler: the
// distributed engine's coordinator over in-process workers, one
// goroutine per island. A time budget is checked only between migration
// rounds, so a run can overshoot MaxTime by one round, which can be long
// on a frontier instance. WithWorkers propagates to each island's cMA,
// so the islands themselves run the partitioned parallel engine.
func NewIsland(cfg IslandConfig) (Scheduler, error) {
	return newEngineScheduler("island", func(p buildParams) (engineRunner, error) {
		c := cfg
		c.Base.Objective = objectiveFor(p.lambdaSet, p.lambda, c.Base.Objective)
		if p.workersSet {
			c.Base.Workers = p.workers
		}
		return dist.NewInProcess(c)
	})
}

// Dynamic grid simulation.
type (
	// SimConfig parameterises the discrete-event grid simulator.
	SimConfig = gridsim.Config
	// SimMetrics summarises one simulation run.
	SimMetrics = gridsim.Metrics
	// SimPolicy produces a schedule for each batch activation.
	SimPolicy = gridsim.Policy
	// SimPolicyFunc adapts a function to SimPolicy.
	SimPolicyFunc = gridsim.PolicyFunc
)

// DefaultSimConfig returns a moderate dynamic-grid scenario.
func DefaultSimConfig() SimConfig { return gridsim.DefaultConfig() }

// Simulate runs the dynamic grid simulator with the given policy.
func Simulate(cfg SimConfig, p SimPolicy) (SimMetrics, error) { return gridsim.Simulate(cfg, p) }

// BatchPolicy wraps any Scheduler (cMA, GA, SA, tabu, or a custom
// implementation) as a dynamic scheduling policy: at every activation the
// algorithm runs on the snapshot instance within the given budget —
// exactly the deployment mode the paper proposes for real grids. Dynamic
// policies and batch runs thereby share one contract. The budget must be
// bounded and not negative; BatchPolicy refuses any other. A cancelled
// budget context degrades gracefully: activations return the algorithm's
// best-so-far schedule (for the engines, at least the seeded population's
// best), so the simulation winds down instead of crashing. Only a run
// that produces no schedule at all panics, as the simulator has no error
// path and a policy that silently drops jobs would corrupt its metrics.
func BatchPolicy(name string, alg Scheduler, budget Budget) (SimPolicy, error) {
	if alg == nil {
		return nil, fmt.Errorf("gridcma: batch policy %s: nil algorithm", name)
	}
	if err := checkBudget("batch policy "+name, budget); err != nil {
		return nil, err
	}
	return gridsim.PolicyFunc{PolicyName: name, Fn: func(in *Instance, seed uint64) Schedule {
		res, err := alg.Run(budget.Context(), in, WithBudget(budget), WithSeed(seed))
		if res.Best == nil {
			panic(fmt.Sprintf("gridcma: batch policy %s produced no schedule: %v", name, err))
		}
		return res.Best
	}}, nil
}

// checkBudget refuses a budget that is negative or bounds nothing.
func checkBudget(what string, budget Budget) error {
	switch {
	case budget.MaxTime < 0 || budget.MaxIterations < 0:
		return fmt.Errorf("gridcma: %s: negative budget", what)
	case !budget.Bounded():
		return fmt.Errorf("gridcma: %s: %w", what, ErrUnbounded)
	}
	return nil
}

// HeuristicPolicy wraps a constructive heuristic as a dynamic policy.
func HeuristicPolicy(name string) (SimPolicy, error) {
	h, err := heuristics.ByName(name)
	if err != nil {
		return nil, err
	}
	return gridsim.PolicyFunc{PolicyName: name, Fn: func(in *Instance, _ uint64) Schedule {
		return h(in)
	}}, nil
}
