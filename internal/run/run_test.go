package run_test

import (
	"context"
	"testing"
	"time"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/localsearch"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

func TestBudgetBounded(t *testing.T) {
	deadlineCtx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	cases := []struct {
		name string
		b    run.Budget
		want bool
	}{
		{"zero", run.Budget{}, false},
		{"time", run.Budget{MaxTime: time.Second}, true},
		{"iterations", run.Budget{MaxIterations: 1}, true},
		{"both", run.Budget{MaxTime: time.Second, MaxIterations: 5}, true},
		{"plain context", run.Budget{}.WithContext(context.Background()), false},
		{"context with deadline", run.Budget{}.WithContext(deadlineCtx), true},
	}
	for _, c := range cases {
		if got := c.b.Bounded(); got != c.want {
			t.Errorf("%s: Bounded() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBudgetDoneIterationAndTimeBounds(t *testing.T) {
	start := time.Now()
	b := run.Budget{MaxIterations: 3}
	if b.Done(2, start) {
		t.Error("done before the iteration bound")
	}
	if !b.Done(3, start) {
		t.Error("not done at the iteration bound")
	}
	tb := run.Budget{MaxTime: time.Nanosecond}
	time.Sleep(time.Millisecond)
	if !tb.Done(0, start) {
		t.Error("not done past the time bound")
	}
	if (run.Budget{MaxTime: time.Hour}).Done(0, start) {
		t.Error("done long before the time bound")
	}
}

func TestBudgetWithContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := run.Budget{MaxIterations: 1000}.WithContext(ctx)
	if b.Cancelled() {
		t.Fatal("cancelled before cancel")
	}
	if b.Done(0, time.Now()) {
		t.Fatal("done before cancel")
	}
	cancel()
	if !b.Cancelled() {
		t.Fatal("not cancelled after cancel")
	}
	if !b.Done(0, time.Now()) {
		t.Fatal("not done after cancel")
	}
	// A budget without a context never reports cancellation.
	if (run.Budget{MaxIterations: 1}).Cancelled() {
		t.Fatal("context-less budget cancelled")
	}
}

func TestBudgetContextDefaultsToBackground(t *testing.T) {
	if (run.Budget{}).Context() != context.Background() {
		t.Fatal("context-less budget must return Background")
	}
	ctx := context.WithValue(context.Background(), testKey{}, 1)
	if run.Budget.WithContext(run.Budget{}, ctx).Context() != ctx {
		t.Fatal("attached context not returned")
	}
}

type testKey struct{}

func TestResultBetter(t *testing.T) {
	empty := run.Result{}
	a := run.Result{Best: schedule.Schedule{0}, Fitness: 1}
	b := run.Result{Best: schedule.Schedule{0}, Fitness: 2}
	if empty.Better(a) {
		t.Error("empty result beats a real one")
	}
	if !a.Better(empty) {
		t.Error("real result does not beat empty")
	}
	if !a.Better(b) || b.Better(a) {
		t.Error("lower fitness must win")
	}
}

// loopRig is a stub engine for Loop: its step moves one job and records
// the result as the new incumbent, so every iteration leaves a different
// best behind, and it logs the indices it is given.
type loopRig struct {
	st      *schedule.State
	best    evalpool.Best
	indices []int
	after   []run.Progress // the incumbent after each step, and before the first
}

func newLoopRig() *loopRig {
	in := etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 7, Jobs: 16, Machs: 4})
	r := &loopRig{st: schedule.NewState(in, make(schedule.Schedule, in.Jobs))}
	r.note(0)
	return r
}

// note records the state as the incumbent with the engine fitness
// 100−iter, which always improves, and logs what an observer must see.
func (r *loopRig) note(iter int) {
	r.best.Note(r.st, schedule.DefaultObjective, float64(100-iter))
	r.after = append(r.after, run.Progress{Iteration: iter,
		Fitness: r.best.Fitness(), Makespan: r.best.Makespan(), Flowtime: r.best.Flowtime()})
}

func (r *loopRig) step(iter int) {
	r.indices = append(r.indices, iter)
	j := iter % r.st.Instance().Jobs
	r.st.Move(j, (r.st.Assign(j)+1)%r.st.Instance().Machs)
	r.note(iter + 1)
}

// Loop runs exactly MaxIterations steps with indices 0…n−1, reports the
// incumbent once before the first step and once after each, and returns
// the incumbent with the iteration count.
func TestLoopReportsAndReturnsTheIncumbent(t *testing.T) {
	const n = 5
	r := newLoopRig()
	var seen []run.Progress
	res := run.Loop(run.Budget{MaxIterations: n}, func(p run.Progress) {
		seen = append(seen, p)
	}, &r.best, r.step)
	if len(r.indices) != n {
		t.Fatalf("ran %d steps, want %d", len(r.indices), n)
	}
	for i, got := range r.indices {
		if got != i {
			t.Fatalf("step %d was given index %d", i, got)
		}
	}
	if len(seen) != n+1 {
		t.Fatalf("observer saw %d reports, want %d", len(seen), n+1)
	}
	for i, p := range seen {
		want := r.after[i]
		if p.Iteration != want.Iteration || p.Fitness != want.Fitness ||
			p.Makespan != want.Makespan || p.Flowtime != want.Flowtime {
			t.Fatalf("report %d: got %+v, want the incumbent %+v", i, p, want)
		}
		if i > 0 && p.Elapsed < seen[i-1].Elapsed {
			t.Fatalf("report %d: elapsed went backwards", i)
		}
	}
	if seen[n-1].Fitness == seen[n].Fitness {
		t.Fatal("the stub's last step did not change the incumbent")
	}
	last := r.after[n]
	if res.Iterations != n || !res.Best.Equal(r.best.Schedule()) || !res.Best.Equal(r.st.ScheduleView()) ||
		res.Fitness != last.Fitness || res.Makespan != last.Makespan || res.Flowtime != last.Flowtime {
		t.Fatalf("result %+v does not carry the incumbent %+v after %d iterations", res, last, n)
	}
	if res.Elapsed < seen[n].Elapsed {
		t.Fatalf("result elapsed %v is before the last report's %v", res.Elapsed, seen[n].Elapsed)
	}
	if res.Evals != 0 || res.Algorithm != "" {
		t.Fatalf("Loop set the caller's fields: %+v", res)
	}
	// A nil observer is legal.
	if res := run.Loop(run.Budget{MaxIterations: 2}, nil, &newLoopRig().best, func(int) {}); res.Iterations != 2 {
		t.Fatalf("nil observer: %d iterations, want 2", res.Iterations)
	}
}

// A context cancelled before the first budget check runs no step but
// still reports the incumbent once and returns it.
func TestLoopCancelledBeforeTheFirstStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := newLoopRig()
	var seen []run.Progress
	res := run.Loop(run.Budget{MaxIterations: 5}.WithContext(ctx), func(p run.Progress) {
		seen = append(seen, p)
	}, &r.best, r.step)
	if len(r.indices) != 0 {
		t.Fatalf("a cancelled loop ran %d steps", len(r.indices))
	}
	if len(seen) != 1 || seen[0].Iteration != 0 || seen[0].Fitness != r.after[0].Fitness {
		t.Fatalf("a cancelled loop reported %+v, want the initial incumbent once", seen)
	}
	if res.Iterations != 0 || res.Best == nil || res.Fitness != r.after[0].Fitness {
		t.Fatalf("a cancelled loop returned %+v", res)
	}
}

// quickEngine returns a small cMA for observer/cancellation plumbing
// tests through a real engine loop.
func quickEngine(t *testing.T) (*cma.Scheduler, *etc.Instance) {
	t.Helper()
	cfg := cma.DefaultConfig()
	cfg.LSIterations = 1
	cfg.LocalSearch = localsearch.SampledLMCTS{Samples: 8}
	s, err := cma.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.Low},
		0, etc.GenerateOptions{Seed: 5, Jobs: 64, Machs: 4})
	return s, in
}

// Observers must see the initial sample plus one per iteration, with
// non-decreasing elapsed time and iteration counters.
func TestObserverPlumbing(t *testing.T) {
	s, in := quickEngine(t)
	var samples []run.Progress
	res := s.Run(in, run.Budget{MaxIterations: 7}, 3, func(p run.Progress) {
		samples = append(samples, p)
	})
	if len(samples) != 8 {
		t.Fatalf("got %d progress samples, want 8 (initial + 7 iterations)", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Iteration != samples[i-1].Iteration+1 {
			t.Fatalf("iteration jumped: %d -> %d", samples[i-1].Iteration, samples[i].Iteration)
		}
		if samples[i].Elapsed < samples[i-1].Elapsed {
			t.Fatalf("elapsed went backwards at %d", i)
		}
		if samples[i].Fitness > samples[i-1].Fitness+1e-9 {
			t.Fatalf("best fitness regressed at %d", i)
		}
	}
	if last := samples[len(samples)-1]; last.Fitness != res.Fitness {
		t.Fatalf("final sample fitness %v != result %v", last.Fitness, res.Fitness)
	}
	// A nil observer must be legal.
	s.Run(in, run.Budget{MaxIterations: 1}, 3, nil)
}

// A cancelled budget context must stop an engine run mid-flight and still
// leave a usable best-so-far result.
func TestBudgetCancellationStopsEngine(t *testing.T) {
	s, in := quickEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	iterations := 0
	b := run.Budget{MaxIterations: 1_000_000}.WithContext(ctx)
	res := s.Run(in, b, 1, func(p run.Progress) {
		iterations = p.Iteration
		if p.Iteration >= 3 {
			cancel()
		}
	})
	if iterations >= 1_000_000 {
		t.Fatal("run was not cancelled")
	}
	if res.Best == nil {
		t.Fatal("cancelled run lost its best-so-far schedule")
	}
	if err := res.Best.Validate(in); err != nil {
		t.Fatal(err)
	}
}
