package gridcma_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gridcma"
)

// smallInstance keeps registry round-trips fast: every engine still runs
// end-to-end, just on a 64×8 problem instead of the 512×16 benchmark.
func smallInstance(tb testing.TB) *gridcma.Instance {
	in := generate(tb, 64, 8, 42)
	in.Name = "small64x8"
	return in
}

// generate builds an instance of the zero-value class, failing the test
// on a generator error.
func generate(tb testing.TB, jobs, machs int, seed uint64) *gridcma.Instance {
	tb.Helper()
	in, err := gridcma.GenerateInstance(gridcma.InstanceClass{}, jobs, machs, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

func TestRegistryRoundTripsEveryAlgorithm(t *testing.T) {
	names := gridcma.Algorithms()
	if len(names) < 8 {
		t.Fatalf("only %d registered algorithms: %v", len(names), names)
	}
	for _, want := range []string{"cma", "cma-sync", "island", "braun-ga", "ss-ga", "struggle-ga", "gsa", "sa", "tabu",
		"sa-sweep"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from registry: %v", want, names)
		}
	}

	in := smallInstance(t)
	for _, name := range names {
		s, err := gridcma.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
		res, err := s.Run(context.Background(), in, gridcma.WithMaxIterations(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Best == nil {
			t.Fatalf("%s: no schedule", name)
		}
		if err := res.Best.Validate(in); err != nil {
			t.Errorf("%s: invalid schedule: %v", name, err)
		}
	}

	if _, err := gridcma.New("no-such-algorithm"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	in := smallInstance(t)
	// island exercises the deepest plumbing: the context must cross the
	// segment budgets into every island goroutine.
	for _, name := range []string{"cma", "island", "sa"} {
		s, err := gridcma.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := s.Run(ctx, in, gridcma.WithBudget(gridcma.Budget{MaxTime: 5 * time.Minute}))
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if elapsed > 30*time.Second {
			t.Errorf("%s: took %v after cancellation; budget not interrupted", name, elapsed)
		}
		if res.Best == nil {
			t.Errorf("%s: cancelled run lost its best-so-far schedule", name)
		}
	}
}

func TestRunUnboundedRejected(t *testing.T) {
	s, err := gridcma.New("sa")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), smallInstance(t)); !errors.Is(err, gridcma.ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
	// A context deadline alone is a legitimate bound.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := s.Run(ctx, smallInstance(t))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Error("deadline-bounded run produced no schedule")
	}
}

func TestWithLambdaRewiresObjective(t *testing.T) {
	in := smallInstance(t)
	s, err := gridcma.New("tabu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), in,
		gridcma.WithMaxIterations(4), gridcma.WithLambda(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness != res.Makespan {
		t.Errorf("λ=1 fitness %v != makespan %v", res.Fitness, res.Makespan)
	}
	if _, err := s.Run(context.Background(), in,
		gridcma.WithMaxIterations(1), gridcma.WithLambda(1.5)); err == nil {
		t.Error("lambda 1.5 accepted")
	}
}

func TestNewAppliesDefaultOptions(t *testing.T) {
	in := smallInstance(t)
	// Defaults from New carry into every Run; per-call options override.
	s, err := gridcma.New("sa", gridcma.WithLambda(1), gridcma.WithMaxIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness != res.Makespan {
		t.Error("default WithLambda(1) not applied")
	}
	res2, err := s.Run(context.Background(), in, gridcma.WithLambda(0))
	if err != nil {
		t.Fatal(err)
	}
	// λ=0 optimises pure mean flowtime: fitness = flowtime / machines.
	if res2.Fitness != res2.Flowtime/float64(in.Machs) {
		t.Error("per-call WithLambda(0) did not override the default")
	}
}

func TestRegisterCustomScheduler(t *testing.T) {
	gridcma.Register("test-constant", func() (gridcma.Scheduler, error) {
		return constantScheduler{}, nil
	})
	found := false
	for _, n := range gridcma.Algorithms() {
		if n == "test-constant" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom scheduler not listed")
	}
	s, err := gridcma.New("test-constant")
	if err != nil {
		t.Fatal(err)
	}
	in := smallInstance(t)
	res, err := s.Run(context.Background(), in, gridcma.WithMaxIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// constantScheduler assigns every job to machine 0 — a trivial but valid
// Scheduler implementation exercising the open registry.
type constantScheduler struct{}

func (constantScheduler) Name() string { return "test-constant" }

func (constantScheduler) Run(ctx context.Context, in *gridcma.Instance, opts ...gridcma.RunOption) (gridcma.Result, error) {
	s := make(gridcma.Schedule, in.Jobs)
	ms, ft, fit := gridcma.Evaluate(in, s)
	return gridcma.Result{Best: s, Fitness: fit, Makespan: ms, Flowtime: ft, Algorithm: "test-constant"}, ctx.Err()
}

func TestPublicRunBatchDeterministicAcrossWorkers(t *testing.T) {
	in := smallInstance(t)
	var algs []gridcma.Scheduler
	for _, n := range []string{"sa", "tabu", "ss-ga"} {
		a, err := gridcma.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	spec := gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: algs,
		Budget:     gridcma.Budget{MaxIterations: 3},
		Repeats:    2,
		BaseSeed:   9,
	}
	var prev []gridcma.BatchResult
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		got, err := gridcma.RunBatch(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 {
			t.Fatalf("%d results", len(got))
		}
		for i := range got {
			got[i].Result.Elapsed = 0
		}
		if prev != nil && !reflect.DeepEqual(prev, got) {
			t.Fatal("batch results depend on worker count")
		}
		prev = got
	}
}

// TestRunBatchSharesPools drives the public RunBatch over cma and island
// on two instances and checks the results stay deterministic and identical
// across worker counts. The island shares one scratch pool among its
// islands within each run; that sharing, and the batch workers running
// runs side by side, must be invisible in every output.
func TestRunBatchSharesPools(t *testing.T) {
	a := generate(t, 48, 6, 21)
	a.Name = "a"
	b := generate(t, 64, 4, 22)
	b.Name = "b"
	var algs []gridcma.Scheduler
	for _, n := range []string{"cma", "island"} {
		s, err := gridcma.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, s)
	}
	spec := gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{a, b},
		Algorithms: algs,
		Budget:     gridcma.Budget{MaxIterations: 2},
		Repeats:    2,
		BaseSeed:   9,
	}
	var ref []gridcma.BatchResult
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		got, err := gridcma.RunBatch(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if !got[i].Result.Best.Equal(ref[i].Result.Best) {
				t.Fatalf("workers=%d: result %d diverged", workers, i)
			}
		}
	}
}

func TestRaceAppliesLambdaToEveryContender(t *testing.T) {
	in := smallInstance(t)
	var algs []gridcma.Scheduler
	for _, n := range []string{"sa", "tabu"} {
		a, err := gridcma.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	out, err := gridcma.Race(context.Background(), in, algs,
		gridcma.WithMaxIterations(3), gridcma.WithLambda(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Fitness != r.Makespan {
			t.Errorf("contender %d: λ=1 fitness %v != makespan %v", i, r.Fitness, r.Makespan)
		}
	}
}

func TestRunBatchSurfacesSchedulerErrors(t *testing.T) {
	in := smallInstance(t)
	_, err := gridcma.RunBatch(context.Background(), gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: []gridcma.Scheduler{failingScheduler{}},
		Budget:     gridcma.Budget{MaxIterations: 1},
		Repeats:    1,
	})
	if err == nil || !errors.Is(err, errAlwaysFails) {
		t.Errorf("err = %v, want errAlwaysFails", err)
	}
}

var errAlwaysFails = errors.New("scheduler always fails")

type failingScheduler struct{}

func (failingScheduler) Name() string { return "failing" }
func (failingScheduler) Run(ctx context.Context, in *gridcma.Instance, opts ...gridcma.RunOption) (gridcma.Result, error) {
	return gridcma.Result{}, errAlwaysFails
}

func TestBatchAndRaceAcceptDeadlineOnlyBound(t *testing.T) {
	in := smallInstance(t)
	a, err := gridcma.New("sa")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	batch, err := gridcma.RunBatch(ctx, gridcma.BatchSpec{
		Instances:  []*gridcma.Instance{in},
		Algorithms: []gridcma.Scheduler{a},
		Repeats:    1,
	})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch: %v", err)
	}
	if len(batch) == 1 && batch[0].Result.Best == nil {
		t.Error("batch: deadline-bounded run produced no schedule")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	out, err := gridcma.Race(ctx2, in, []gridcma.Scheduler{a})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("race: %v", err)
	}
	if out.Best.Best == nil {
		t.Error("race: deadline-bounded run produced no schedule")
	}
}

func TestRunHonorsBudgetEmbeddedContext(t *testing.T) {
	in := smallInstance(t)
	s, err := gridcma.New("sa")
	if err != nil {
		t.Fatal(err)
	}
	// A budget bounded only by its own context's deadline must run, not
	// panic or report ErrUnbounded.
	bctx, bcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer bcancel()
	res, err := s.Run(context.Background(), in,
		gridcma.WithBudget(gridcma.Budget{}.WithContext(bctx)))
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Error("no schedule from budget-context deadline bound")
	}
	// Cancelling the budget's context stops the run even when the Run
	// context is a different, live one.
	bctx2, bcancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		bcancel2()
	}()
	start := time.Now()
	res, err = s.Run(context.Background(), in,
		gridcma.WithBudget(gridcma.Budget{MaxTime: 5 * time.Minute}.WithContext(bctx2)))
	if time.Since(start) > 30*time.Second {
		t.Error("budget-context cancellation ignored")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res.Best == nil {
		t.Error("cancelled run lost best-so-far")
	}
}

func TestNewValidatesDefaultOptions(t *testing.T) {
	if _, err := gridcma.New("cma", gridcma.WithLambda(1.5)); err == nil {
		t.Error("lambda 1.5 accepted at New time")
	}
	if _, err := gridcma.New("cma", gridcma.WithMaxIterations(-1)); err == nil {
		t.Error("negative budget accepted at New time")
	}
}

func TestPublicRace(t *testing.T) {
	in := smallInstance(t)
	var algs []gridcma.Scheduler
	for _, n := range []string{"sa", "tabu"} {
		a, err := gridcma.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	out, err := gridcma.Race(context.Background(), in, algs, gridcma.WithMaxIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.Best == nil || len(out.Results) != 2 {
		t.Fatalf("bad outcome: best=%v results=%d", out.Best.Best, len(out.Results))
	}
	if out.Best.Fitness != out.Results[out.Winner].Fitness {
		t.Error("winner index inconsistent")
	}
}
