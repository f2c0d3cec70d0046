package gridcma_test

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridcma"
)

// newAlgs builds registry algorithms by name, failing the test on error.
func newAlgs(t *testing.T, names ...string) []gridcma.Scheduler {
	t.Helper()
	algs := make([]gridcma.Scheduler, len(names))
	for i, n := range names {
		a, err := gridcma.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs[i] = a
	}
	return algs
}

// TestRunBatchDeterministicAcrossWorkerCounts checks that a batch's
// results, in order and in value, do not depend on how many workers ran it.
func TestRunBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	in := generate(t, 48, 6, 11)
	in.Name = "test48x6"
	spec := gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: newAlgs(t, "sa", "tabu"),
		Budget:     gridcma.Budget{MaxIterations: 6},
		Repeats:    4,
		BaseSeed:   3,
	}
	var prev []gridcma.BatchResult
	for _, workers := range []int{1, 3, 8} {
		spec.Workers = workers
		got, err := gridcma.RunBatch(context.Background(), spec)
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
	a, b := smallInstance(t), generate(t, 32, 4, 5)
	b.Name = "b"
	algs := newAlgs(t, "sa", "tabu")
	spec := gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{a, b},
		Algorithms: algs,
		Budget:     gridcma.Budget{MaxIterations: 2},
		Seeds:      []uint64{7, 9},
	}
	got, err := gridcma.RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm-major, then instance, then repeat; Seeds reused verbatim
	// for every pair.
	k := 0
	for ai, alg := range algs {
		for ii, in := range spec.Instances {
			for ri, seed := range spec.Seeds {
				g := got[k]
				if g.Algorithm != alg.Name() || g.Instance != in.Name || g.Seed != seed ||
					g.SchedulerIndex != ai || g.InstanceIndex != ii || g.RepeatIndex != ri {
					t.Errorf("task %d: got %s/%s seed %d at (%d,%d,%d)", k,
						g.Algorithm, g.Instance, g.Seed, g.SchedulerIndex, g.InstanceIndex, g.RepeatIndex)
				}
				if g.Result.Best == nil {
					t.Errorf("task %d: no schedule", k)
				}
				k++
			}
		}
	}
	if k != len(got) {
		t.Fatalf("%d results, want %d", len(got), k)
	}

	// Without Seeds, each task's seed derives from BaseSeed and its
	// coordinates alone: a sub-batch reports the same seeds at the same
	// coordinates, and distinct coordinates get distinct seeds.
	spec.Seeds, spec.Repeats, spec.BaseSeed = nil, 3, 42
	full, err := gridcma.RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, r := range full {
		if seen[r.Seed] {
			t.Errorf("seed %#x repeated", r.Seed)
		}
		seen[r.Seed] = true
	}
	spec.Algorithms = algs[:1]
	sub, err := gridcma.RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sub {
		if r.Seed != full[i].Seed || r.Result.Fitness != full[i].Result.Fitness {
			t.Errorf("task %d: seed %#x / fitness %v, want %#x / %v", i, r.Seed, r.Result.Fitness,
				full[i].Seed, full[i].Result.Fitness)
		}
	}
}

func TestRunBatchHonorsCancellation(t *testing.T) {
	in := smallInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch even starts
	got, err := gridcma.RunBatch(ctx, gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: newAlgs(t, "sa", "tabu"),
		Budget:     gridcma.Budget{MaxIterations: 1000},
		Repeats:    8,
		Workers:    2,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != 0 {
		t.Fatalf("%d tasks ran after pre-cancellation", len(got))
	}

	// Cancelled mid-batch: the completed subset comes back, in order,
	// with the context's error.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	got, err = gridcma.RunBatch(ctx, gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: []gridcma.Scheduler{cancelOnRun{cancel: cancel, n: 4, runs: new(atomic.Int32)}},
		Budget:     gridcma.Budget{MaxIterations: 1},
		Repeats:    10,
		Workers:    1,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != 4 {
		t.Fatalf("%d results, want the 4 tasks that ran", len(got))
	}
	for i, r := range got {
		if r.RepeatIndex != i {
			t.Errorf("result %d has repeat index %d", i, r.RepeatIndex)
		}
	}
}

// cancelOnRun is a trivial scheduler that cancels the batch during its
// n-th run.
type cancelOnRun struct {
	cancel context.CancelFunc
	n      int32
	runs   *atomic.Int32
}

func (c cancelOnRun) Name() string { return "cancel-on-run" }

func (c cancelOnRun) Run(ctx context.Context, in *gridcma.Instance, opts ...gridcma.RunOption) (gridcma.Result, error) {
	if c.runs.Add(1) == c.n {
		c.cancel()
	}
	return constantScheduler{}.Run(ctx, in, opts...)
}

func TestRunBatchValidates(t *testing.T) {
	in := smallInstance(t)
	algs := newAlgs(t, "sa")
	bounded := gridcma.Budget{MaxIterations: 1}
	for _, c := range []struct {
		spec gridcma.BatchSpec
		want string
	}{
		{gridcma.BatchSpec{Algorithms: algs, Budget: bounded, Repeats: 1}, "no instances"},
		{gridcma.BatchSpec{Instances: []*gridcma.Instance{in}, Budget: bounded, Repeats: 1}, "no algorithms"},
		{gridcma.BatchSpec{Instances: []*gridcma.Instance{in}, Algorithms: algs, Repeats: 1}, "unbounded budget"},
		{gridcma.BatchSpec{Instances: []*gridcma.Instance{in}, Algorithms: algs, Budget: bounded}, "need Seeds or Repeats"},
		{gridcma.BatchSpec{Instances: []*gridcma.Instance{in, nil}, Algorithms: algs, Budget: bounded, Repeats: 1}, "nil instance"},
		{gridcma.BatchSpec{Instances: []*gridcma.Instance{in}, Algorithms: []gridcma.Scheduler{nil}, Budget: bounded, Repeats: 1}, "nil algorithm"},
	} {
		got, err := gridcma.RunBatch(context.Background(), c.spec)
		if err == nil || !strings.HasPrefix(err.Error(), "gridcma: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v", c.want, err)
		}
		if got != nil {
			t.Errorf("%s: %d results from an invalid spec", c.want, len(got))
		}
	}
}

func TestRaceValidates(t *testing.T) {
	in := smallInstance(t)
	algs := newAlgs(t, "sa")
	iters := gridcma.WithMaxIterations(1)
	for _, c := range []struct {
		in   *gridcma.Instance
		algs []gridcma.Scheduler
		opts []gridcma.RunOption
		want string
	}{
		{in, nil, []gridcma.RunOption{iters}, "empty portfolio"},
		{in, []gridcma.Scheduler{algs[0], nil}, []gridcma.RunOption{iters}, "nil algorithm"},
		{nil, algs, []gridcma.RunOption{iters}, "nil instance"},
		{in, algs, nil, "unbounded budget"},
	} {
		if _, err := gridcma.Race(context.Background(), c.in, c.algs, c.opts...); err == nil ||
			!strings.HasPrefix(err.Error(), "gridcma: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v", c.want, err)
		}
	}
}

func TestRaceCancelsLosers(t *testing.T) {
	in := smallInstance(t)
	algs := newAlgs(t, "sa", "tabu")
	// Contender 0 finishes after a handful of iterations; contender 1
	// alone would run for an hour. Winning must cancel it.
	start := time.Now()
	out, err := gridcma.Race(context.Background(), in,
		[]gridcma.Scheduler{algs[0], slowScheduler{algs[1]}}, gridcma.WithMaxIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("race took %v; losers not cancelled", elapsed)
	}
	if out.Best.Best == nil || len(out.Results) != 2 {
		t.Fatalf("bad outcome: best=%v results=%d", out.Best.Best, len(out.Results))
	}
	if out.Results[1].Best == nil {
		t.Error("cancelled loser lost its best-so-far")
	}
	if out.Best.Fitness != out.Results[out.Winner].Fitness {
		t.Error("winner index inconsistent with best result")
	}
}

// slowScheduler replaces the budget with an hour of wall-clock, so the
// wrapped algorithm can only finish by being cancelled.
type slowScheduler struct{ inner gridcma.Scheduler }

func (s slowScheduler) Name() string { return "slow-" + s.inner.Name() }

func (s slowScheduler) Run(ctx context.Context, in *gridcma.Instance, opts ...gridcma.RunOption) (gridcma.Result, error) {
	return s.inner.Run(ctx, in, append(opts, gridcma.WithBudget(gridcma.Budget{MaxTime: time.Hour}))...)
}
