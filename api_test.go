package gridcma_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"gridcma"
)

func TestBenchmarkInstanceNamesAndGeneration(t *testing.T) {
	names := gridcma.BenchmarkInstanceNames()
	if len(names) != 12 {
		t.Fatalf("%d names", len(names))
	}
	// Publication order: consistency, then job and machine heterogeneity.
	for i, want := range map[int]string{0: "u_c_hihi.0", 1: "u_c_hilo.0", 4: "u_i_hihi.0", 11: "u_s_lolo.0"} {
		if names[i] != want {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want)
		}
	}
	for _, n := range names {
		in, err := gridcma.BenchmarkInstance(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if in.Jobs != 512 || in.Machs != 16 {
			t.Errorf("%s: %d×%d", n, in.Jobs, in.Machs)
		}
	}
	if _, err := gridcma.BenchmarkInstance("bogus"); err == nil {
		t.Error("bogus name accepted")
	}
}

func TestGenerateInstanceCustomDims(t *testing.T) {
	class := gridcma.InstanceClass{} // zero value: inconsistent, low, low
	in, err := gridcma.GenerateInstance(class, 64, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if in.Jobs != 64 || in.Machs != 8 {
		t.Fatalf("dims %d×%d", in.Jobs, in.Machs)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero dimensions default to the benchmark's 512×16.
	if in, err = gridcma.GenerateInstance(class, 0, 0, 1); err != nil || in.Jobs != 512 || in.Machs != 16 {
		t.Errorf("defaults: %v", err)
	}
	for _, d := range [][2]int{{-5, 3}, {3, -1}, {1 << 20, 1 << 20}} {
		if in, err := gridcma.GenerateInstance(class, d[0], d[1], 1); err == nil || in != nil {
			t.Errorf("%d×%d accepted", d[0], d[1])
		}
	}
}

func TestInstanceIORoundTripThroughFacade(t *testing.T) {
	in := generate(t, 10, 4, 1)
	var buf bytes.Buffer
	if err := gridcma.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := gridcma.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != 10 || got.Machs != 4 {
		t.Fatalf("dims %d×%d", got.Jobs, got.Machs)
	}
}

func TestHeuristicFacade(t *testing.T) {
	in, _ := gridcma.BenchmarkInstance("u_c_lolo.0")
	for _, n := range gridcma.HeuristicNames() {
		h, err := gridcma.Heuristic(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		s := h(in)
		ms, ft, fit := gridcma.Evaluate(in, s)
		if ms <= 0 || ft <= 0 || fit <= 0 {
			t.Errorf("%s: non-positive objectives", n)
		}
		if ms > ft {
			t.Errorf("%s: makespan %v exceeds flowtime %v", n, ms, ft)
		}
	}
	if _, err := gridcma.Heuristic("nope"); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestCMAThroughFacade(t *testing.T) {
	in, _ := gridcma.BenchmarkInstance("u_s_lolo.0")
	cfg := gridcma.DefaultCMAConfig()
	if cfg.Objective.Lambda != gridcma.DefaultLambda {
		t.Error("default lambda mismatch")
	}
	sched, err := gridcma.NewCMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	res, err := sched.Run(context.Background(), in,
		gridcma.WithMaxIterations(8),
		gridcma.WithSeed(1),
		gridcma.WithObserver(func(p gridcma.Progress) { seen++ }))
	if err != nil {
		t.Fatal(err)
	}
	if seen != 9 {
		t.Errorf("observer called %d times", seen)
	}
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
	ms, ft, fit := gridcma.Evaluate(in, res.Best)
	if ms != res.Makespan || ft != res.Flowtime || fit != res.Fitness {
		t.Errorf("result fields inconsistent with re-evaluation: (%v,%v,%v) vs (%v,%v,%v)",
			res.Makespan, res.Flowtime, res.Fitness, ms, ft, fit)
	}
}

func TestGAFacadeVariants(t *testing.T) {
	in, _ := gridcma.BenchmarkInstance("u_i_lolo.0")
	for _, v := range []gridcma.GAVariant{gridcma.BraunGA, gridcma.SteadyStateGA, gridcma.StruggleGA} {
		g, err := gridcma.NewGA(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		res, err := g.Run(context.Background(), in, gridcma.WithMaxIterations(3))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := res.Best.Validate(in); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestSATabuFacade(t *testing.T) {
	in, _ := gridcma.BenchmarkInstance("u_c_hilo.0")
	s, err := gridcma.NewSA()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Run(context.Background(), in, gridcma.WithMaxIterations(3)); err != nil || res.Best == nil {
		t.Errorf("SA returned no schedule (err %v)", err)
	}
	tb, err := gridcma.NewTabu()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tb.Run(context.Background(), in, gridcma.WithMaxIterations(3)); err != nil || res.Best == nil {
		t.Errorf("tabu returned no schedule (err %v)", err)
	}
}

func TestLocalSearchFacade(t *testing.T) {
	for _, n := range []string{"LM", "SLM", "LMCTS", "VND", "none"} {
		if _, err := gridcma.LocalSearch(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := gridcma.LocalSearch("zzz"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestStateFacade(t *testing.T) {
	in, _ := gridcma.BenchmarkInstance("u_c_lolo.0")
	r := gridcma.NewRNG(3)
	s := make(gridcma.Schedule, in.Jobs)
	for j := range s {
		s[j] = r.Intn(in.Machs)
	}
	st := gridcma.NewState(in, s)
	before := st.Makespan()
	st.Move(0, (s[0]+1)%in.Machs)
	st.Move(0, s[0])
	if st.Makespan() != before {
		t.Error("move/revert changed makespan")
	}
}

func TestSimulationFacade(t *testing.T) {
	cfg := gridcma.DefaultSimConfig()
	cfg.Horizon = 150
	cfg.JoinRate, cfg.LeaveRate = 0, 0
	p, err := gridcma.HeuristicPolicy("minmin")
	if err != nil {
		t.Fatal(err)
	}
	m, err := gridcma.Simulate(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted == 0 {
		t.Error("no jobs completed")
	}
	if _, err := gridcma.HeuristicPolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestBatchPolicyFacade(t *testing.T) {
	sched, err := gridcma.NewCMA(gridcma.DefaultCMAConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := gridcma.BatchPolicy("cma", sched, gridcma.Budget{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "cma" {
		t.Errorf("name %q", p.Name())
	}
	cfg := gridcma.DefaultSimConfig()
	cfg.Horizon = 60
	cfg.ActivationInterval = 20
	cfg.JoinRate, cfg.LeaveRate = 0, 0
	m, err := gridcma.Simulate(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Activations == 0 {
		t.Error("no activations")
	}
}

// A budget that cannot bound every activation is refused when the policy
// is built, not by a panic inside the simulation.
func TestBatchPolicyRefusesBadBudget(t *testing.T) {
	sched, err := gridcma.New("sa")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []gridcma.Budget{{}, {MaxIterations: -2}, {MaxIterations: 3, MaxTime: -time.Second}} {
		if p, err := gridcma.BatchPolicy("sa", sched, b); err == nil || p != nil {
			t.Errorf("budget %+v accepted", b)
		}
	}
	if _, err := gridcma.BatchPolicy("sa", sched, gridcma.Budget{}); !errors.Is(err, gridcma.ErrUnbounded) {
		t.Errorf("unbounded budget: err = %v, want ErrUnbounded", err)
	}
	if _, err := gridcma.BatchPolicy("none", nil, gridcma.Budget{MaxIterations: 1}); err == nil {
		t.Error("nil algorithm accepted")
	}
}

// LambdaSweep runs the cMA once per λ, and the cMA panics on a budget
// that bounds nothing, so the sweep refuses such a budget up front.
func TestLambdaSweepRefusesBadBudget(t *testing.T) {
	in := smallInstance(t)
	lambdas := []float64{0, 1}
	if _, err := gridcma.LambdaSweep(in, gridcma.DefaultCMAConfig(), lambdas, gridcma.Budget{}, 1, 8); !errors.Is(err, gridcma.ErrUnbounded) {
		t.Errorf("unbounded budget: err = %v, want ErrUnbounded", err)
	}
	for _, b := range []gridcma.Budget{{MaxIterations: -2}, {MaxIterations: 3, MaxTime: -time.Second}} {
		if f, err := gridcma.LambdaSweep(in, gridcma.DefaultCMAConfig(), lambdas, b, 1, 8); err == nil || f != nil {
			t.Errorf("budget %+v accepted", b)
		}
	}
}

func TestBudgetSemantics(t *testing.T) {
	b := gridcma.Budget{MaxTime: time.Millisecond}
	if !b.Bounded() {
		t.Error("time budget should be bounded")
	}
	if (gridcma.Budget{}).Bounded() {
		t.Error("zero budget should be unbounded")
	}
}
