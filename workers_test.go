package gridcma_test

import (
	"context"
	"testing"

	"gridcma"
)

// WithWorkers must never change the outcome of a parallel run — only its
// wall-clock. This is the public-API face of the engine-level guarantee.
func TestWithWorkersDeterministicResults(t *testing.T) {
	in := generate(t, 96, 8, 7)
	var ref gridcma.Result
	for i, workers := range []int{1, 2, 8} {
		s, err := gridcma.New("cma-par")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), in,
			gridcma.WithMaxIterations(5), gridcma.WithSeed(3), gridcma.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !ref.Best.Equal(res.Best) || ref.Fitness != res.Fitness {
			t.Fatalf("WithWorkers(%d) changed the result", workers)
		}
	}
}

// WithWorkers on the sequential cma switches it to the parallel engine
// for that call; the result must match cma-par at the same seed.
func TestWithWorkersSwitchesEngine(t *testing.T) {
	in := generate(t, 96, 8, 8)
	seq, err := gridcma.New("cma")
	if err != nil {
		t.Fatal(err)
	}
	par, err := gridcma.New("cma-par")
	if err != nil {
		t.Fatal(err)
	}
	a, err := seq.Run(context.Background(), in,
		gridcma.WithMaxIterations(4), gridcma.WithSeed(5), gridcma.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Run(context.Background(), in,
		gridcma.WithMaxIterations(4), gridcma.WithSeed(5), gridcma.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Best.Equal(b.Best) || a.Fitness != b.Fitness {
		t.Fatal("cma+WithWorkers and cma-par diverged at the same seed")
	}
	if a.Algorithm != "cMA-par" {
		t.Fatalf("engine name %q, want cMA-par", a.Algorithm)
	}
}

// WithWorkers(0) must restore the scheduler's configured default — for
// cma-par that is the parallel engine, so the result must match a plain
// cma-par run, not the sequential engine.
func TestWithWorkersZeroRestoresDefault(t *testing.T) {
	in := generate(t, 96, 8, 9)
	par, err := gridcma.New("cma-par")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := par.Run(context.Background(), in,
		gridcma.WithMaxIterations(4), gridcma.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	reset, err := par.Run(context.Background(), in,
		gridcma.WithMaxIterations(4), gridcma.WithSeed(5), gridcma.WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if reset.Algorithm != plain.Algorithm || !reset.Best.Equal(plain.Best) {
		t.Fatalf("WithWorkers(0) did not restore the default engine: %q vs %q",
			reset.Algorithm, plain.Algorithm)
	}
}

// The probe path (speculative FitnessAfterMove scoring inside SLM's
// steepest descent) must preserve the cross-worker determinism contract
// end to end: a custom cMA whose memetic step is pure probe evaluation
// yields byte-identical schedules for every worker count.
func TestWithWorkersDeterministicProbePath(t *testing.T) {
	in := generate(t, 96, 8, 11)
	cfg := gridcma.DefaultCMAConfig()
	ls, err := gridcma.LocalSearch("SLM")
	if err != nil {
		t.Fatal(err)
	}
	cfg.LocalSearch = ls
	cfg.Workers = 1
	var ref gridcma.Result
	for i, workers := range []int{1, 2, 8} {
		s, err := gridcma.NewCMA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), in,
			gridcma.WithMaxIterations(5), gridcma.WithSeed(9), gridcma.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !ref.Best.Equal(res.Best) || ref.Fitness != res.Fitness || ref.Makespan != res.Makespan {
			t.Fatalf("SLM probe path: WithWorkers(%d) changed the result", workers)
		}
	}
}

func TestWithWorkersNegativeRejected(t *testing.T) {
	in := generate(t, 32, 4, 1)
	s, err := gridcma.New("cma")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), in,
		gridcma.WithMaxIterations(1), gridcma.WithWorkers(-3)); err == nil {
		t.Fatal("negative WithWorkers accepted")
	}
}

// New validates its default options as Run validates each call's: a
// negative worker count fails at construction, not on the first Run.
func TestNewRejectsNegativeWorkers(t *testing.T) {
	if s, err := gridcma.New("cma", gridcma.WithWorkers(-3)); err == nil {
		t.Fatalf("New accepted a negative worker count and returned %q", s.Name())
	}
}
