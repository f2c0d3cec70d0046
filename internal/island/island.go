// Package island implements the coarse-grained structured memetic
// algorithm of the paper's §3.1 taxonomy: several cMA islands evolve in
// parallel (one goroutine each) and periodically exchange individuals
// over a unidirectional ring. The fine-grained (cellular) model is the
// paper's contribution; the island wrapper lets the library cover the
// other branch of the structured-population design space and gives a
// natural multi-core scaling path on top of the sequential asynchronous
// engine.
//
// Migration happens at segment boundaries: every MigrationEvery
// iterations each island exports its population, sends its best Migrants
// individuals to the next island on the ring (replacing that island's
// worst), and resumes from the merged population. Results are
// deterministic in the seed: island RNG streams and the migration shuffle
// are all derived from it, and goroutine scheduling cannot affect the
// outcome because migration is a full barrier.
package island

import (
	"fmt"
	"sync"
	"time"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// Config parameterises the island model.
type Config struct {
	// Islands is the number of parallel cMA populations (ring nodes).
	Islands int
	// MigrationEvery is the segment length in cMA iterations between
	// exchanges.
	MigrationEvery int
	// Migrants is how many of an island's best individuals are copied to
	// its ring successor at each exchange.
	Migrants int
	// Base configures every island's cMA.
	Base cma.Config
}

// DefaultConfig returns 4 islands exchanging their 2 best individuals
// every 5 iterations on the paper-tuned cMA.
func DefaultConfig() Config {
	return Config{Islands: 4, MigrationEvery: 5, Migrants: 2, Base: cma.DefaultConfig()}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Islands < 2:
		return fmt.Errorf("island: need at least 2 islands, got %d", c.Islands)
	case c.MigrationEvery < 1:
		return fmt.Errorf("island: MigrationEvery %d", c.MigrationEvery)
	case c.Migrants < 1:
		return fmt.Errorf("island: Migrants %d", c.Migrants)
	case c.Migrants >= c.Base.Width*c.Base.Height:
		return fmt.Errorf("island: Migrants %d must be below the island population %d",
			c.Migrants, c.Base.Width*c.Base.Height)
	}
	return c.Base.Validate()
}

// Scheduler is a reusable island-model scheduler.
type Scheduler struct {
	cfg   Config
	inner *cma.Scheduler
}

// New validates cfg and builds the scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := cma.New(cfg.Base)
	if err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg, inner: inner}, nil
}

// Name identifies the algorithm in results.
func (s *Scheduler) Name() string { return fmt.Sprintf("IslandCMA(%d)", s.cfg.Islands) }

// Run executes the island model within budget. The iteration budget is
// interpreted per island (all islands advance in lockstep segments); a
// time budget bounds the whole ensemble. Every island's segment sub-cMA
// draws its offspring workspaces from one pool per run, so the run
// allocates its scratch States once instead of islands × segments times;
// the pool's Get/Put are safe for the islands' concurrency.
func (s *Scheduler) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	if !budget.Bounded() {
		panic("island: unbounded budget")
	}
	pool := evalpool.New(in)
	start := time.Now()
	n := s.cfg.Islands
	// Live per-island meshes, kept across segments (cache-aware resume:
	// cma adopts the States wholesale instead of rebuilding from
	// schedules, so prefix sums, tournament trees and scan caches stay
	// warm through migration). nil until the first segment builds them.
	states := make([][]*schedule.State, n)
	results := make([]run.Result, n)

	var best run.Result
	totalIters := 0
	var totalEvals int64

	emit := func() {
		if obs != nil && best.Best != nil {
			obs(run.Progress{
				Elapsed:   time.Since(start),
				Iteration: totalIters,
				Fitness:   best.Fitness,
				Makespan:  best.Makespan,
				Flowtime:  best.Flowtime,
			})
		}
	}

	for !budget.Done(totalIters, start) {
		segIters := s.cfg.MigrationEvery
		if budget.MaxIterations > 0 && totalIters+segIters > budget.MaxIterations {
			segIters = budget.MaxIterations - totalIters
		}
		segBudget := run.Budget{MaxIterations: segIters}.WithContext(budget.Context())
		if budget.MaxTime > 0 {
			remaining := budget.MaxTime - time.Since(start)
			if remaining <= 0 {
				break
			}
			segBudget.MaxTime = remaining
		}

		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				// Per-island, per-segment deterministic seed.
				islandSeed := SegmentSeed(seed, i, totalIters)
				res, sts := s.inner.RunWithStatesPooled(in, segBudget, islandSeed, nil, states[i], pool)
				results[i] = res
				states[i] = sts
			}(i)
		}
		wg.Wait()

		for i := 0; i < n; i++ {
			totalEvals += results[i].Evals
			if results[i].Better(best) {
				best = results[i]
			}
		}
		totalIters += segIters
		s.migrateStates(states)
		emit()
	}

	best.Iterations = totalIters
	best.Evals = totalEvals
	best.Elapsed = time.Since(start)
	best.Algorithm = s.Name()
	return best
}

// migrateStates is the exchange over live States: migrants are applied
// through SetScheduleDiff, which re-lists only the jobs whose machine
// differs instead of rebuilding every list.
//
// Fitness ranking must be bit-identical to the wholesale exchange's fresh
// Objective.Evaluate: per-machine completions already are (incremental
// maintenance refreshes whole machines), but a State's flowtime
// accumulator drifts in the low bits under subtract-then-add updates, so
// each State is canonicalised with RefreshFlowtime — a per-machine
// re-fold, no rebuild — before ranking.
func (s *Scheduler) migrateStates(states [][]*schedule.State) {
	o := s.cfg.Base.Objective
	fits := make([][]float64, len(states))
	for i, sts := range states {
		f := make([]float64, len(sts))
		for k, st := range sts {
			st.RefreshFlowtime()
			f[k] = o.Of(st)
		}
		fits[i] = f
	}
	moves := PlanMigration(fits, s.cfg.Migrants, nil)
	// Clone every source schedule before any destination is written.
	migs := make([]schedule.Schedule, len(moves))
	for k, mv := range moves {
		migs[k] = states[mv.Src][mv.SrcIdx].Schedule()
	}
	for k, mv := range moves {
		states[mv.Dst][mv.DstIdx].SetScheduleDiff(migs[k])
	}
}
