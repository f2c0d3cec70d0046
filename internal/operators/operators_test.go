package operators

import (
	"math"
	"testing"
	"testing/quick"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

func testInstance(seed uint64) *etc.Instance {
	return etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: seed, Jobs: 48, Machs: 8})
}

// --- selection ---

func linearFitness(i int) float64 { return float64(i) }

func TestTournamentPicksFromCandidates(t *testing.T) {
	r := rng.New(1)
	sel := NewTournament(3)
	cands := []int{10, 20, 30, 40}
	for k := 0; k < 100; k++ {
		got := sel.Select(cands, linearFitness, r)
		ok := false
		for _, c := range cands {
			if got == c {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("selected %d not a candidate", got)
		}
	}
}

func TestTournamentPressureIncreasesWithN(t *testing.T) {
	cands := make([]int, 50)
	for i := range cands {
		cands[i] = i
	}
	meanFor := func(n int) float64 {
		r := rng.New(42)
		sel := NewTournament(n)
		sum := 0.0
		for k := 0; k < 3000; k++ {
			sum += float64(sel.Select(cands, linearFitness, r))
		}
		return sum / 3000
	}
	m1, m3, m7 := meanFor(1), meanFor(3), meanFor(7)
	if !(m7 < m3 && m3 < m1) {
		t.Errorf("selection pressure should grow with N: means %v %v %v", m1, m3, m7)
	}
}

func TestTournamentN1IsUniform(t *testing.T) {
	r := rng.New(7)
	sel := NewTournament(1)
	counts := map[int]int{}
	cands := []int{0, 1, 2, 3}
	for k := 0; k < 8000; k++ {
		counts[sel.Select(cands, linearFitness, r)]++
	}
	for _, c := range cands {
		if math.Abs(float64(counts[c])-2000) > 200 {
			t.Errorf("candidate %d chosen %d times, want ~2000", c, counts[c])
		}
	}
}

func TestNewTournamentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTournament(0)
}

func TestBestSelector(t *testing.T) {
	r := rng.New(1)
	got := Best{}.Select([]int{5, 2, 9, 2}, linearFitness, r)
	if got != 2 {
		t.Fatalf("Best selected %d, want 2", got)
	}
}

func TestRandomSelectorUniform(t *testing.T) {
	r := rng.New(9)
	counts := map[int]int{}
	for k := 0; k < 6000; k++ {
		counts[Random{}.Select([]int{1, 2, 3}, nil, r)]++
	}
	for _, c := range []int{1, 2, 3} {
		if math.Abs(float64(counts[c])-2000) > 200 {
			t.Errorf("count[%d] = %d", c, counts[c])
		}
	}
}

func TestLinearRankPrefersFit(t *testing.T) {
	r := rng.New(11)
	counts := map[int]int{}
	cands := []int{0, 1, 2, 3, 4}
	for k := 0; k < 10000; k++ {
		counts[LinearRank{}.Select(cands, linearFitness, r)]++
	}
	// Expected proportions 5:4:3:2:1.
	if !(counts[0] > counts[2] && counts[2] > counts[4]) {
		t.Errorf("rank selection not monotone: %v", counts)
	}
	want0 := 10000 * 5.0 / 15.0
	if math.Abs(float64(counts[0])-want0) > 350 {
		t.Errorf("best candidate chosen %d times, want ~%.0f", counts[0], want0)
	}
}

func TestSelectDistinct(t *testing.T) {
	r := rng.New(13)
	cands := []int{1, 2, 3, 4, 5}
	got := SelectDistinctInto(NewTournament(3), 3, cands, linearFitness, r, nil)
	if len(got) != 3 {
		t.Fatalf("got %d, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, g := range got {
		if seen[g] {
			t.Fatalf("duplicate %d", g)
		}
		seen[g] = true
	}
	// k larger than pool clamps.
	got = SelectDistinctInto(NewTournament(3), 10, cands, linearFitness, r, nil)
	if len(got) != len(cands) {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestSelectorsOnSingleton(t *testing.T) {
	r := rng.New(15)
	for _, sel := range []Selector{NewTournament(3), Best{}, Random{}, LinearRank{}} {
		if got := sel.Select([]int{7}, linearFitness, r); got != 7 {
			t.Errorf("%s on singleton = %d", sel.Name(), got)
		}
	}
}

// --- crossover ---

func TestOnePointStructure(t *testing.T) {
	r := rng.New(1)
	n := 20
	a, b := make(schedule.Schedule, n), make(schedule.Schedule, n)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	child := make(schedule.Schedule, n)
	for k := 0; k < 50; k++ {
		OnePoint{}.Cross(a, b, child, r)
		// Must be a prefix of 1s followed by suffix of 2s, both non-empty.
		cut := 0
		for cut < n && child[cut] == 1 {
			cut++
		}
		if cut == 0 || cut == n {
			t.Fatalf("degenerate cut %d", cut)
		}
		for i := cut; i < n; i++ {
			if child[i] != 2 {
				t.Fatalf("not one-point: %v", child)
			}
		}
	}
}

func TestCrossoverGenesComeFromParents(t *testing.T) {
	in := testInstance(3)
	r := rng.New(4)
	a, b := schedule.NewRandom(in, r), schedule.NewRandom(in, r)
	child := make(schedule.Schedule, in.Jobs)
	for _, cx := range []Crossover{OnePoint{}, TwoPoint{}, Uniform{}} {
		for k := 0; k < 20; k++ {
			cx.Cross(a, b, child, r)
			for i := range child {
				if child[i] != a[i] && child[i] != b[i] {
					t.Fatalf("%s: gene %d from neither parent", cx.Name(), i)
				}
			}
			if err := child.Validate(in); err != nil {
				t.Fatalf("%s: %v", cx.Name(), err)
			}
		}
	}
}

func TestCrossoverLengthOne(t *testing.T) {
	r := rng.New(5)
	child := make(schedule.Schedule, 1)
	OnePoint{}.Cross(schedule.Schedule{3}, schedule.Schedule{4}, child, r)
	if child[0] != 3 {
		t.Fatalf("n=1 one-point should copy parent a, got %d", child[0])
	}
	TwoPoint{}.Cross(schedule.Schedule{3}, schedule.Schedule{4}, child, r)
	if child[0] != 3 && child[0] != 4 {
		t.Fatal("n=1 two-point gene from neither parent")
	}
}

func TestCrossoverPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OnePoint{}.Cross(schedule.Schedule{1, 2}, schedule.Schedule{1}, make(schedule.Schedule, 2), rng.New(1))
}

func TestParseCrossover(t *testing.T) {
	for _, n := range []string{"one-point", "two-point", "uniform"} {
		if _, err := ParseCrossover(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := ParseCrossover("pmx"); err == nil {
		t.Error("expected error")
	}
}

func TestUniformMixesBothParents(t *testing.T) {
	r := rng.New(6)
	n := 100
	a, b := make(schedule.Schedule, n), make(schedule.Schedule, n)
	for i := range a {
		a[i], b[i] = 0, 1
	}
	child := make(schedule.Schedule, n)
	Uniform{}.Cross(a, b, child, r)
	ones := 0
	for _, g := range child {
		ones += g
	}
	if ones < 25 || ones > 75 {
		t.Errorf("uniform crossover heavily biased: %d ones of %d", ones, n)
	}
}

// --- mutation ---

func TestMoveAndSwapKeepValidity(t *testing.T) {
	in := testInstance(7)
	r := rng.New(8)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	for _, m := range []Mutator{Move{}, Swap{}, DefaultRebalance} {
		for k := 0; k < 100; k++ {
			m.Mutate(st, r)
		}
		if err := st.Schedule().Validate(in); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
}

func TestRebalanceMovesFromCriticalMachine(t *testing.T) {
	in := testInstance(9)
	r := rng.New(10)
	for trial := 0; trial < 30; trial++ {
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		crit := st.MakespanMachine()
		nCrit := len(st.JobsOn(crit))
		DefaultRebalance.Mutate(st, r)
		// Either the critical machine lost a job, or the move was a no-op
		// because source == target (possible only if crit is also among
		// the least loaded, i.e. near-uniform loads).
		if got := len(st.JobsOn(crit)); got != nCrit && got != nCrit-1 {
			t.Fatalf("critical machine job count %d -> %d", nCrit, got)
		}
	}
}

func TestRebalanceReducesPressureOnAverage(t *testing.T) {
	// Rebalance should, on average, not increase makespan much and often
	// decrease it; check it at least never moves to the critical machine.
	in := testInstance(11)
	r := rng.New(12)
	worse := 0
	const trials = 50
	for k := 0; k < trials; k++ {
		st := schedule.NewState(in, schedule.NewRandom(in, r))
		before := st.Makespan()
		DefaultRebalance.Mutate(st, r)
		if st.Makespan() > before+1e-9 {
			worse++
		}
	}
	if worse > trials/4 {
		t.Errorf("rebalance worsened makespan in %d/%d trials", worse, trials)
	}
}

func TestRebalanceOnEmptyLoadsIsSafe(t *testing.T) {
	// Single machine: everything on it, no target to move to.
	in := etc.New("t", 3, 1)
	for j := 0; j < 3; j++ {
		in.Set(j, 0, 1)
	}
	in.Finalize()
	st := schedule.NewState(in, schedule.Schedule{0, 0, 0})
	DefaultRebalance.Mutate(st, rng.New(1)) // must not panic
}

func TestParseMutator(t *testing.T) {
	for _, n := range []string{"move", "swap", "rebalance"} {
		if _, err := ParseMutator(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := ParseMutator("inversion"); err == nil {
		t.Error("expected error")
	}
}

func TestRebalanceFractionGuard(t *testing.T) {
	in := testInstance(13)
	r := rng.New(14)
	st := schedule.NewState(in, schedule.NewRandom(in, r))
	bad := Rebalance{LessLoadedFraction: -3}
	bad.Mutate(st, r) // must fall back to default fraction, not panic
	if err := st.Schedule().Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverProperty(t *testing.T) {
	in := testInstance(15)
	f := func(seed uint64, which uint8) bool {
		r := rng.New(seed)
		a, b := schedule.NewRandom(in, r), schedule.NewRandom(in, r)
		child := make(schedule.Schedule, in.Jobs)
		cx := []Crossover{OnePoint{}, TwoPoint{}, Uniform{}}[int(which)%3]
		cx.Cross(a, b, child, r)
		return child.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
