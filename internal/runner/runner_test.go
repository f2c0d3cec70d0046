package runner

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gridcma/internal/etc"
	"gridcma/internal/run"
	"gridcma/internal/sa"
	"gridcma/internal/tabu"
)

func testInstance(t *testing.T) *etc.Instance {
	t.Helper()
	in := etc.Generate(etc.Class{}, 0, etc.GenerateOptions{Jobs: 48, Machs: 6, Seed: 11})
	in.Name = "test48x6"
	return in
}

func testSchedulers(t *testing.T) []Scheduler {
	t.Helper()
	s, err := sa.New(sa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tabu.New(tabu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []Scheduler{s, tb}
}

func TestRunBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	in := testInstance(t)
	spec := BatchSpec{
		Instances:  []Instance{{Name: in.Name, In: in}},
		Schedulers: testSchedulers(t),
		Budget:     run.Budget{MaxIterations: 6},
		Repeats:    4,
		BaseSeed:   3,
	}
	var prev []BatchResult
	for _, workers := range []int{1, 3, 8} {
		spec.Workers = workers
		got, err := RunBatch(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 8 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		// Elapsed is wall-clock noise; zero it before comparing.
		for i := range got {
			got[i].Result.Elapsed = 0
		}
		if prev != nil && !reflect.DeepEqual(prev, got) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
		prev = got
	}
}

func TestRunBatchOrderAndSeeds(t *testing.T) {
	in := testInstance(t)
	scheds := testSchedulers(t)
	spec := BatchSpec{
		Instances:  []Instance{{Name: in.Name, In: in}},
		Schedulers: scheds,
		Budget:     run.Budget{MaxIterations: 2},
		Seeds:      []uint64{7, 9},
	}
	got, err := RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		alg  string
		seed uint64
	}{
		{scheds[0].Name(), 7}, {scheds[0].Name(), 9},
		{scheds[1].Name(), 7}, {scheds[1].Name(), 9},
	}
	for i, w := range want {
		if got[i].Algorithm != w.alg || got[i].Seed != w.seed {
			t.Errorf("task %d: got (%s, %d), want (%s, %d)",
				i, got[i].Algorithm, got[i].Seed, w.alg, w.seed)
		}
		if got[i].Result.Best == nil {
			t.Errorf("task %d: no schedule", i)
		}
	}
}

func TestRunBatchHonorsCancellation(t *testing.T) {
	in := testInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch even starts
	got, err := RunBatch(ctx, BatchSpec{
		Instances:  []Instance{{Name: in.Name, In: in}},
		Schedulers: testSchedulers(t),
		Budget:     run.Budget{MaxIterations: 1000},
		Repeats:    8,
		Workers:    2,
	})
	if err == nil {
		t.Fatal("expected context error")
	}
	if len(got) != 0 {
		t.Fatalf("%d tasks ran after pre-cancellation", len(got))
	}
}

func TestRunBatchValidates(t *testing.T) {
	in := testInstance(t)
	cases := []BatchSpec{
		{},
		{Instances: []Instance{{Name: in.Name, In: in}}},
		{Instances: []Instance{{Name: in.Name, In: in}}, Schedulers: testSchedulers(t)},
		{Instances: []Instance{{Name: in.Name, In: in}}, Schedulers: testSchedulers(t),
			Budget: run.Budget{MaxIterations: 1}},
	}
	for i, spec := range cases {
		if _, err := RunBatch(context.Background(), spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestRaceCancelsLosers(t *testing.T) {
	in := testInstance(t)
	scheds := testSchedulers(t)
	// Scheduler 0 finishes after a handful of iterations; scheduler 1
	// alone would run for minutes. Winning must cancel it.
	fast := run.Budget{MaxIterations: 4}
	start := time.Now()
	out, err := Race(context.Background(), in,
		[]Scheduler{scheds[0], slowScheduler{scheds[1]}}, fast, 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("race took %v; losers not cancelled", elapsed)
	}
	if out.Best.Best == nil {
		t.Fatal("race produced no schedule")
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Best.Fitness != out.Results[out.Winner].Fitness {
		t.Error("winner index inconsistent with best result")
	}
}

// slowScheduler inflates the iteration budget so the wrapped engine can
// only finish by being cancelled.
type slowScheduler struct{ inner Scheduler }

func (s slowScheduler) Name() string { return "slow-" + s.inner.Name() }
func (s slowScheduler) Run(in *etc.Instance, b run.Budget, seed uint64, obs run.Observer) run.Result {
	b.MaxIterations = 0
	b.MaxTime = time.Hour
	return s.inner.Run(in, b, seed, obs)
}
