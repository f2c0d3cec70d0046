package dist

import (
	"sync"
	"testing"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/island"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// runWholesale is the island model's reference loop: at every segment
// each island's mesh is rebuilt from its population, one NewState per
// schedule, and every segment exports plain schedules that migrate by a
// fresh Objective.Evaluate ranking. It shares nothing with the
// coordinator but the segment primitives (SegmentSeed, PlanMigration,
// ApplyMigration) and the cMA, so the coordinator's stashed meshes,
// SetScheduleDiff re-targeting and worker-side fitness values are all
// pinned against it. The budget is iterations only.
func runWholesale(in *etc.Instance, cfg island.Config, iters int, seed uint64) (run.Result, error) {
	inner, err := cma.New(cfg.Base)
	if err != nil {
		return run.Result{}, err
	}
	pool := evalpool.New(in)
	n := cfg.Islands
	pops := make([][]schedule.Schedule, n) // nil until the first segment
	results := make([]run.Result, n)
	var best run.Result
	var totalEvals int64
	totalIters := 0
	for totalIters < iters {
		segIters := min(cfg.MigrationEvery, iters-totalIters)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var states []*schedule.State
				for _, s := range pops[i] {
					states = append(states, schedule.NewState(in, s))
				}
				res, final := inner.RunWithStatesPooled(in, run.Budget{MaxIterations: segIters}, island.SegmentSeed(seed, i, totalIters), nil, states, pool)
				results[i] = res
				pops[i] = make([]schedule.Schedule, len(final))
				for k, st := range final {
					pops[i][k] = st.Schedule()
				}
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
		fits := make([][]float64, n)
		for i, pop := range pops {
			for _, s := range pop {
				fits[i] = append(fits[i], cfg.Base.Objective.Of(schedule.NewState(in, s)))
			}
		}
		island.ApplyMigration(pops, island.PlanMigration(fits, cfg.Migrants, nil))
	}
	best.Iterations = totalIters
	best.Evals = totalEvals
	return best, nil
}

// islandConfig is the island.Config a dist.Config describes.
func islandConfig(cfg Config) (island.Config, error) {
	base, err := cfg.Spec.Build()
	if err != nil {
		return island.Config{}, err
	}
	return island.Config{Islands: cfg.Islands, MigrationEvery: cfg.MigrationEvery, Migrants: cfg.Migrants, Base: base}, nil
}

// inProcReference runs the wholesale reference loop on the rig.
func inProcReference(t *testing.T, rig *tortureRig, iters int, seed uint64) run.Result {
	t.Helper()
	cfg, err := islandConfig(rig.dcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWholesale(rig.in, cfg, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// benchIsland is the island-run benchmarks' instance and configuration:
// 4 islands on 256x16, exchanging 2 migrants every 2 iterations.
func benchIsland(b *testing.B) (*etc.Instance, island.Config) {
	gs, err := etc.ParseGenSpec("256x16:c_hihi:s3")
	if err != nil {
		b.Fatal(err)
	}
	in, err := gs.Generate()
	if err != nil {
		b.Fatal(err)
	}
	cfg := island.DefaultConfig()
	cfg.MigrationEvery = 2
	return in, cfg
}

// BenchmarkIslandRunWholesale is the reference loop: every State rebuilt
// from its schedule at every segment boundary, scan caches cold after
// migration.
func BenchmarkIslandRunWholesale(b *testing.B) {
	in, cfg := benchIsland(b)
	for i := 0; i < b.N; i++ {
		if _, err := runWholesale(in, cfg, 8, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIslandRunDiff is the production engine: the coordinator over
// in-process workers, meshes kept across segments and migrants applied
// through SetScheduleDiff.
func BenchmarkIslandRunDiff(b *testing.B) {
	in, cfg := benchIsland(b)
	p, err := NewInProcess(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p.Run(in, run.Budget{MaxIterations: 8}, 11, nil)
	}
}
