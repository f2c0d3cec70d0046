package gridsim

import (
	"math"
	"reflect"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/heuristics"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// minMinPolicy is the cheap deterministic policy used by most tests.
func minMinPolicy() Policy {
	return PolicyFunc{PolicyName: "minmin", Fn: func(in *etc.Instance, _ uint64) schedule.Schedule {
		return heuristics.MinMin(in)
	}}
}

func randomPolicy() Policy {
	return PolicyFunc{PolicyName: "random", Fn: func(in *etc.Instance, seed uint64) schedule.Schedule {
		return schedule.NewRandom(in, rng.New(seed))
	}}
}

func staticCfg() Config {
	cfg := DefaultConfig()
	cfg.JoinRate, cfg.LeaveRate = 0, 0
	cfg.Horizon = 400
	return cfg
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.InitialMachines = 0 },
		func(c *Config) { c.TaskRange = 0.5 },
		func(c *Config) { c.MachRange = 0 },
		func(c *Config) { c.PairInconsistency = 0.9 },
		func(c *Config) { c.ActivationInterval = 0 },
		func(c *Config) { c.JoinRate = -1 },
	}
	for i, f := range bad {
		cfg := DefaultConfig()
		f(&cfg)
		if _, err := NewSim(cfg, minMinPolicy()); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := NewSim(DefaultConfig(), nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestStaticSimulationCompletesJobs(t *testing.T) {
	m, err := Simulate(staticCfg(), minMinPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsArrived == 0 {
		t.Fatal("no arrivals")
	}
	// With 16 machines, rate 1 and mean job time well under capacity,
	// nearly everything in the first ~90% of the horizon should finish.
	if float64(m.JobsCompleted) < 0.8*float64(m.JobsArrived) {
		t.Errorf("completed %d of %d", m.JobsCompleted, m.JobsArrived)
	}
	if m.Activations == 0 {
		t.Error("scheduler never activated")
	}
	if m.MeanResponse <= 0 || m.MeanWait < 0 {
		t.Errorf("bad response metrics: %+v", m)
	}
	if m.MeanWait > m.MeanResponse {
		t.Error("wait cannot exceed response")
	}
	if m.Makespan <= 0 || m.Makespan > staticCfg().Horizon {
		t.Errorf("makespan %v outside (0, horizon]", m.Makespan)
	}
	if m.Utilization <= 0 || m.Utilization > 1+1e-9 {
		t.Errorf("utilization %v outside (0,1]", m.Utilization)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, _ := Simulate(staticCfg(), minMinPolicy())
	b, _ := Simulate(staticCfg(), minMinPolicy())
	if a != b {
		t.Fatalf("same config, different metrics:\n%+v\n%+v", a, b)
	}
	cfg := staticCfg()
	cfg.Seed = 999
	c, _ := Simulate(cfg, minMinPolicy())
	if a == c {
		t.Error("different seeds, identical metrics (suspicious)")
	}
}

// submits runs cfg under p and returns its admitted arrivals, as the
// Record hook reports them.
func submits(t *testing.T, cfg Config, p Policy) []eventlog.Event {
	t.Helper()
	var out []eventlog.Event
	cfg.Record = func(e eventlog.Event) {
		if e.Type == eventlog.Submit {
			out = append(out, e)
		}
	}
	if _, err := Simulate(cfg, p); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPoissonArrivalsWithinBounds(t *testing.T) {
	cfg := staticCfg()
	cfg.Horizon = 50
	arrivals := submits(t, cfg, minMinPolicy())
	if len(arrivals) == 0 {
		t.Fatal("no arrivals within the horizon")
	}
	prev := 0.0
	for i, a := range arrivals {
		if a.T < prev || a.T > cfg.Horizon {
			t.Fatalf("arrival %d at %v out of order/bounds", i, a.T)
		}
		if a.Base < 1 || a.Base >= cfg.TaskRange {
			t.Fatalf("arrival %d base %v outside [1, %v)", i, a.Base, cfg.TaskRange)
		}
		prev = a.T
	}
}

func TestPoissonArrivalCountMatchesRate(t *testing.T) {
	cfg := staticCfg()
	m, err := Simulate(cfg, minMinPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Expected count ≈ rate × horizon; allow wide slack.
	want := cfg.ArrivalRate * cfg.Horizon
	if float64(m.JobsArrived) < 0.6*want || float64(m.JobsArrived) > 1.4*want {
		t.Errorf("%d arrivals, expected ≈%.0f", m.JobsArrived, want)
	}
}

// The arrival stream depends on the seed alone, never on the policy, so
// policies are compared on the same workload.
func TestArrivalsIndependentOfPolicy(t *testing.T) {
	cfg := staticCfg()
	cfg.Horizon = 60
	a := submits(t, cfg, minMinPolicy())
	b := submits(t, cfg, randomPolicy())
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("arrivals %d / %d, want the same non-zero count", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("arrival %d differs across policies: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestChurnRestartsJobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Horizon = 600
	cfg.LeaveRate = 0.05 // aggressive churn
	cfg.JoinRate = 0.05
	m, err := Simulate(cfg, minMinPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if m.MachinesLeft == 0 || m.MachinesJoined == 0 {
		t.Fatalf("expected churn, got %+v", m)
	}
	// Some running jobs should have been interrupted at this leave rate.
	if m.JobsRestarted == 0 {
		t.Error("no restarts despite machine departures")
	}
	// Simulation still completes a sensible share of jobs.
	if float64(m.JobsCompleted) < 0.5*float64(m.JobsArrived) {
		t.Errorf("completed only %d of %d under churn", m.JobsCompleted, m.JobsArrived)
	}
}

func TestNeverDropsLastMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialMachines = 1
	cfg.JoinRate = 0
	cfg.LeaveRate = 1.0 // tries constantly
	cfg.Horizon = 100
	m, err := Simulate(cfg, minMinPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if m.MachinesLeft != 0 {
		t.Errorf("the only machine left the grid: %+v", m)
	}
	if m.JobsCompleted == 0 {
		t.Error("single machine completed nothing")
	}
}

func TestBetterPolicyGivesBetterResponse(t *testing.T) {
	// Min-Min should beat random assignment on mean response in a loaded
	// grid; this is the core claim that smarter batch scheduling improves
	// dynamic QoS.
	cfg := staticCfg()
	cfg.ArrivalRate = 2 // load the grid
	mm, _ := Simulate(cfg, minMinPolicy())
	rd, _ := Simulate(cfg, randomPolicy())
	if mm.MeanResponse >= rd.MeanResponse {
		t.Errorf("min-min response %v should beat random %v", mm.MeanResponse, rd.MeanResponse)
	}
}

func TestUtilizationScalesWithLoad(t *testing.T) {
	low := staticCfg()
	low.ArrivalRate = 0.2
	high := staticCfg()
	high.ArrivalRate = 3
	ml, _ := Simulate(low, minMinPolicy())
	mh, _ := Simulate(high, minMinPolicy())
	if ml.Utilization >= mh.Utilization {
		t.Errorf("utilization should grow with load: %v vs %v", ml.Utilization, mh.Utilization)
	}
}

func TestMetricsInvariants(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Horizon = 300
		m, err := Simulate(cfg, minMinPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if m.JobsCompleted > m.JobsArrived {
			t.Fatalf("seed %d: completed > arrived", seed)
		}
		if m.Makespan > cfg.Horizon {
			t.Fatalf("seed %d: makespan beyond horizon", seed)
		}
		if m.Utilization < 0 || m.Utilization > 1+1e-9 {
			t.Fatalf("seed %d: utilization %v", seed, m.Utilization)
		}
		if math.IsNaN(m.MeanResponse) || m.MeanResponse < 0 {
			t.Fatalf("seed %d: response %v", seed, m.MeanResponse)
		}
	}
}
