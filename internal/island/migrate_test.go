package island_test

import (
	"math"
	"slices"
	"testing"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/island"
	"gridcma/internal/island/dist"
	"gridcma/internal/rng"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// TestStatesPathMatchesWholesale is the cache-aware migration pin: the
// island engine's live-State resume path (dist.InProcess: each island's
// mesh kept by its worker across segments, migrants applied via
// SetScheduleDiff) must be bit-identical to the wholesale path
// (populations exported as schedules, every State rebuilt per segment by
// Segment). Runs long enough for several exchanges, across seeds and
// island counts.
func TestStatesPathMatchesWholesale(t *testing.T) {
	in := testInstance()
	for _, tc := range []struct {
		islands, every, migrants, iters int
		seed                            uint64
	}{
		{2, 2, 1, 8, 1},
		{4, 3, 2, 12, 7},
		{5, 2, 3, 10, 42},
	} {
		cfg := island.DefaultConfig()
		cfg.Islands = tc.islands
		cfg.MigrationEvery = tc.every
		cfg.Migrants = tc.migrants
		s, err := dist.NewInProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Run(in, run.Budget{MaxIterations: tc.iters}, tc.seed, nil)
		want := runWholesale(t, in, cfg, tc.iters, tc.seed)
		if !got.Best.Equal(want.Best) {
			t.Errorf("%+v: best schedules differ between states and wholesale paths", tc)
		}
		if got.Fitness != want.Fitness || got.Makespan != want.Makespan || got.Flowtime != want.Flowtime {
			t.Errorf("%+v: metrics differ: states (%v %v %v) wholesale (%v %v %v)",
				tc, got.Fitness, got.Makespan, got.Flowtime, want.Fitness, want.Makespan, want.Flowtime)
		}
		if got.Evals != want.Evals || got.Iterations != want.Iterations {
			t.Errorf("%+v: evals/iters differ: %d/%d vs %d/%d",
				tc, got.Evals, got.Iterations, want.Evals, want.Iterations)
		}
	}
}

// runWholesale runs the island model for iters iterations through the
// schedule path: each round runs every island's segment with Segment,
// then exchanges migrants with migrate.
func runWholesale(t *testing.T, in *etc.Instance, cfg island.Config, iters int, seed uint64) run.Result {
	t.Helper()
	pool := evalpool.New(in)
	pops := make([][]schedule.Schedule, cfg.Islands) // nil until the first segment
	var best run.Result
	var evals int64
	done := 0
	for done < iters {
		segIters := min(cfg.MigrationEvery, iters-done)
		for i := range pops {
			res, out, _, err := Segment(in, cfg.Base, segIters, island.SegmentSeed(seed, i, done), pops[i], pool)
			if err != nil {
				t.Fatal(err)
			}
			evals += res.Evals
			if res.Better(best) {
				best = res
			}
			pops[i] = out
		}
		done += segIters
		migrate(in, cfg, pops)
	}
	best.Iterations = done
	best.Evals = evals
	return best
}

// TestPlanMigrationMatchesLegacyRing checks the planner against the
// historical exchange rule directly: with all islands alive, island i's m
// best land on island i+1's m worst, ranked before any replacement.
func TestPlanMigrationMatchesLegacyRing(t *testing.T) {
	fits := [][]float64{
		{3, 1, 2, 4}, // ranked: 1,2,0,3
		{9, 7, 8, 6}, // ranked: 3,1,2,0
		{5, 5, 5, 5}, // all tied
	}
	moves := island.PlanMigration(fits, 2, nil)
	want := []island.Move{
		{Src: 0, SrcIdx: 1, Dst: 1, DstIdx: 0},
		{Src: 0, SrcIdx: 2, Dst: 1, DstIdx: 2},
		{Src: 1, SrcIdx: 3, Dst: 2, DstIdx: 3},
		{Src: 1, SrcIdx: 1, Dst: 2, DstIdx: 2},
		{Src: 2, SrcIdx: 0, Dst: 0, DstIdx: 3},
		{Src: 2, SrcIdx: 1, Dst: 0, DstIdx: 0},
	}
	if len(moves) != len(want) {
		t.Fatalf("got %d moves %v, want %d", len(moves), moves, len(want))
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Errorf("move %d = %+v, want %+v", i, moves[i], want[i])
		}
	}
}

// TestPlanMigrationHealsRing: dead islands are spliced out — their
// neighbours exchange directly — and a sole survivor exchanges with
// nobody.
func TestPlanMigrationHealsRing(t *testing.T) {
	fits := [][]float64{
		{1, 2},
		nil, // dead (no population reported)
		{4, 3},
		{6, 5},
	}
	alive := []bool{true, false, true, true}
	moves := island.PlanMigration(fits, 1, alive)
	want := []island.Move{
		{Src: 0, SrcIdx: 0, Dst: 2, DstIdx: 0}, // 0 skips dead 1, lands on 2
		{Src: 2, SrcIdx: 1, Dst: 3, DstIdx: 0},
		{Src: 3, SrcIdx: 1, Dst: 0, DstIdx: 1},
	}
	if len(moves) != len(want) {
		t.Fatalf("got %v, want %v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Errorf("move %d = %+v, want %+v", i, moves[i], want[i])
		}
	}

	solo := island.PlanMigration([][]float64{{1, 2}, nil, nil}, 1, []bool{true, false, false})
	if len(solo) != 0 {
		t.Fatalf("sole survivor produced moves %v", solo)
	}
	none := island.PlanMigration([][]float64{nil, nil}, 1, []bool{false, false})
	if len(none) != 0 {
		t.Fatalf("empty ring produced moves %v", none)
	}
}

// TestSegmentSeedMatchesHistoricalDerivation pins the wire-visible seed
// rule to the constants the island model has always used.
func TestSegmentSeedMatchesHistoricalDerivation(t *testing.T) {
	seed := uint64(12345)
	for _, c := range []struct{ island, iters int }{{0, 0}, {3, 10}, {7, 95}} {
		want := seed ^ (uint64(c.island)+1)*0x9e3779b97f4a7c15 ^ uint64(c.iters)*0xbf58476d1ce4e5b9
		if got := island.SegmentSeed(seed, c.island, c.iters); got != want {
			t.Errorf("SegmentSeed(%d,%d,%d) = %x, want %x", seed, c.island, c.iters, got, want)
		}
	}
}

// Segment runs one migration segment from schedules: segIters
// iterations of the base cMA on a mesh built cell by cell from pop
// (NewState per schedule; nil for the first segment's fresh mesh),
// returning the segment result, the evolved population and each
// individual's fitness (fits[k] is bit-identical to
// base.Objective.Evaluate of out[k], the ranking migration uses). It is
// what a worker does without a stashed mesh, so the tests below pin the
// stateless unit of work the worker's cached path must reproduce.
func Segment(in *etc.Instance, base cma.Config, segIters int, islandSeed uint64, pop []schedule.Schedule, pool *evalpool.Pool) (res run.Result, out []schedule.Schedule, fits []float64, err error) {
	inner, err := cma.New(base)
	if err != nil {
		return run.Result{}, nil, nil, err
	}
	var states []*schedule.State
	for _, s := range pop {
		states = append(states, schedule.NewState(in, s))
	}
	res, states = inner.RunWithStatesPooled(in, run.Budget{MaxIterations: segIters}, islandSeed, nil, states, pool)
	out = make([]schedule.Schedule, len(states))
	fits = make([]float64, len(states))
	for k, st := range states {
		out[k] = st.Schedule()
		st.RefreshFlowtime()
		fits[k] = base.Objective.Of(st)
	}
	return res, out, fits, nil
}

// migrate is the wholesale exchange: each island's Migrants best
// individuals, ranked by a fresh Objective.Evaluate, replace its ring
// successor's worst.
func migrate(in *etc.Instance, cfg island.Config, pops [][]schedule.Schedule) {
	fits := make([][]float64, len(pops))
	for i, pop := range pops {
		for _, s := range pop {
			fits[i] = append(fits[i], cfg.Base.Objective.Of(schedule.NewState(in, s)))
		}
	}
	island.ApplyMigration(pops, island.PlanMigration(fits, cfg.Migrants, nil))
}

// TestSegmentIsIdempotent: the distributed worker's unit of work must
// yield identical results when re-executed (duplicated delivery, retry
// after a lost reply, warm restart re-send), fitness values included.
func TestSegmentIsIdempotent(t *testing.T) {
	in := testInstance()
	cfg := cma.DefaultConfig()
	pool := evalpool.New(in)
	seed := island.SegmentSeed(99, 1, 5)
	res1, pop1, fits1, err := Segment(in, cfg, 3, seed, nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	res2, pop2, fits2, err := Segment(in, cfg, 3, seed, nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Best.Equal(res2.Best) || res1.Fitness != res2.Fitness || res1.Evals != res2.Evals {
		t.Fatal("re-executed segment differs from the original")
	}
	if !slices.Equal(fits1, fits2) {
		t.Fatalf("re-executed segment's fitness values differ: %v vs %v", fits1, fits2)
	}
	for i := range pop1 {
		if !pop1[i].Equal(pop2[i]) {
			t.Fatalf("population individual %d differs on re-execution", i)
		}
	}
	// And resuming from that population is idempotent too.
	res3, _, fits3, err := Segment(in, cfg, 3, island.SegmentSeed(99, 1, 8), pop1, pool)
	if err != nil {
		t.Fatal(err)
	}
	res4, _, fits4, err := Segment(in, cfg, 3, island.SegmentSeed(99, 1, 8), pop2, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Best.Equal(res4.Best) || res3.Fitness != res4.Fitness || !slices.Equal(fits3, fits4) {
		t.Fatal("resumed segment differs between identical populations")
	}
}

// TestSegmentFitsMatchEvaluate pins the values a distributed worker ships
// in SegmentResponse.Fits, which the coordinator ranks migrants by: each
// fits[k] must equal a from-scratch Objective.Evaluate of out[k] bit for
// bit, fresh and resumed, over several seeds, on a Braun instance and on
// a tie-heavy integer-ETC one (where flowtime sums of equal terms make
// any drift in the incremental accumulator visible).
func TestSegmentFitsMatchEvaluate(t *testing.T) {
	braun, err := etc.GenerateByName("u_i_hilo.0")
	if err != nil {
		t.Fatal(err)
	}
	tie := etc.New("tie", 96, 6)
	r := rng.New(3)
	for j := 0; j < tie.Jobs; j++ {
		for m := 0; m < tie.Machs; m++ {
			tie.Set(j, m, float64(1+r.Intn(4))*25)
		}
	}
	tie.Finalize()
	base := fastCfg().Base
	for _, in := range []*etc.Instance{braun, tie} {
		pool := evalpool.New(in)
		for seed := uint64(1); seed <= 3; seed++ {
			var pop []schedule.Schedule
			for seg := 0; seg < 2; seg++ {
				_, out, fits, err := Segment(in, base, 2, island.SegmentSeed(seed, 0, 2*seg), pop, pool)
				if err != nil {
					t.Fatal(err)
				}
				if len(fits) != len(out) {
					t.Fatalf("%s seed %d: %d fitness values for %d individuals", in.Name, seed, len(fits), len(out))
				}
				for k, s := range out {
					if want := base.Objective.Of(schedule.NewState(in, s)); math.Float64bits(fits[k]) != math.Float64bits(want) {
						t.Fatalf("%s seed %d segment %d individual %d: fit %v, Evaluate %v", in.Name, seed, seg, k, fits[k], want)
					}
				}
				pop = out
			}
		}
	}
}

// --- Benchmark: the alloc-guarded migrant-apply hot path. ---

func benchInstance(b *testing.B) *etc.Instance {
	spec, err := etc.ParseGenSpec("256x16:c_hihi:s3")
	if err != nil {
		b.Fatal(err)
	}
	in, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkMigrantApply is the alloc-guarded migrant-application hot
// path: diffing an incoming migrant into a live State. Must stay
// allocation-free — CI runs it under the same guard as the probe/sweep
// kernels.
func BenchmarkMigrantApply(b *testing.B) {
	in := benchInstance(b)
	r := rng.New(5)
	orig := schedule.NewRandom(in, r)
	mig := orig.Clone()
	schedule.Perturb(mig, in, r, 0.1)
	st := schedule.NewState(in, orig)
	// Warm the one-off diff buffers so the steady-state loop is measured.
	st.SetScheduleDiff(mig)
	st.SetScheduleDiff(orig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			st.SetScheduleDiff(mig)
		} else {
			st.SetScheduleDiff(orig)
		}
	}
}
