package schedule

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/rng"
)

// Differential fuzz for the bounded critical-swap query: across
// thousands of random commit/invalidate sequences it must return, bit for
// bit, the winner of a from-scratch full sweep — value, critical job and
// partner id — including on tie-heavy integer instances where the
// (value, SPT-position, id) tie-break contract actually binds.

// scanInstances mixes generic random instances with tie-heavy integer
// ones (tieInstance lives in sweep_test.go). The consistent and
// semi-consistent ones keep each partner's cost on the critical machine
// correlated with its SPT position, where the suffix-minimum cut of
// bestOn skips the most pairs.
func scanInstances() []*etc.Instance {
	return []*etc.Instance{
		etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 81, Jobs: 72, Machs: 9}),
		etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.Low, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 82, Jobs: 90, Machs: 6}),
		tieInstance(60, 8, 83),
		tieInstance(36, 4, 84),
		tieInstance(20, 3, 85),
		etc.Generate(etc.Class{Consistency: etc.Consistent, JobHet: etc.High, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 91, Jobs: 96, Machs: 8}),
		etc.Generate(etc.Class{Consistency: etc.SemiConsistent, JobHet: etc.High, MachineHet: etc.Low},
			0, etc.GenerateOptions{Seed: 92, Jobs: 80, Machs: 10}),
	}
}

// refCriticalSwap is the uncached reference: a fresh full sweep of the
// critical neighborhood through BeginSwapScan/BestPartner (itself pinned
// against the scalar pair query by sweep_test.go), folded with the
// historical strict-< across critical jobs in SPT order.
func refCriticalSwap(st *State) (float64, int, int) {
	crit := st.MakespanMachine()
	critJobs := st.JobsOn(crit)
	if len(critJobs) == 0 {
		return math.Inf(1), -1, -1
	}
	scan := st.BeginSwapScan(crit)
	best, bestA, bestB := math.Inf(1), -1, -1
	for _, a := range critJobs {
		if v, b := scan.BestPartner(int(a)); b >= 0 && v < best {
			best, bestA, bestB = v, int(a), b
		}
	}
	if bestB < 0 {
		return math.Inf(1), -1, -1
	}
	return best, bestA, bestB
}

// TestCachedScanMatchesFullSweep drives a state through long random
// commit sequences — single moves, swaps, occasional wholesale
// SetSchedule re-evaluations, repeated queries on an unchanged state —
// and checks the query against the reference sweep after every step.
// The reference runs on a mirror state so its BeginSwapScan cannot
// share buffers with the query's scratch.
func TestCachedScanMatchesFullSweep(t *testing.T) {
	o := DefaultObjective
	for i, in := range scanInstances() {
		r := rng.New(uint64(i) + 800)
		start := NewRandom(in, r)
		st := NewState(in, start)
		mirror := NewState(in, start.Clone())
		sc := st.Scans(o)
		queries := 0
		for step := 0; step < 900; step++ {
			switch op := r.Intn(10); {
			case op < 5: // committed move
				j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
				st.Move(j, to)
				mirror.Move(j, to)
			case op < 8: // committed swap
				a, b := r.Intn(in.Jobs), r.Intn(in.Jobs)
				st.Swap(a, b)
				mirror.Swap(a, b)
			case op == 8: // wholesale re-evaluation
				s := NewRandom(in, r)
				st.SetSchedule(s)
				mirror.SetSchedule(s)
			default: // no-op: the query repeats on an unchanged state
			}
			for q := 0; q < 2; q++ { // a query must not depend on the last
				gv, ga, gb := sc.BestCriticalSwap()
				wv, wa, wb := refCriticalSwap(mirror)
				if gv != wv || ga != wa || gb != wb {
					t.Fatalf("instance %d step %d: cached scan (%x,%d,%d) != full sweep (%x,%d,%d)",
						i, step, gv, ga, gb, wv, wa, wb)
				}
				queries++
			}
		}
		if queries < 1500 {
			t.Fatalf("instance %d: only %d differential queries", i, queries)
		}
	}
}

// bruteCriticalSwap is the brute-force oracle of BestCriticalSwap,
// computed without the swap scan: the lexicographic (value, aPos, b)
// minimum over every pair of a critical job (at SPT position aPos) and a
// job b on a non-critical, non-exempt machine, each scored by the scalar
// pair query completionAfterSwap.
func bruteCriticalSwap(st *State) (float64, int, int) {
	exempt := func(m int) bool { return st.scanExempt != nil && st.scanExempt[m] }
	crit := st.MakespanMachine()
	if exempt(crit) {
		return math.Inf(1), -1, -1
	}
	critJobs := st.JobsOn(crit)
	best, bestAPos, bestB := math.Inf(1), -1, -1
	for apos, a := range critJobs {
		for b := 0; b < st.inst.Jobs; b++ {
			if m := st.Assign(b); m == crit || exempt(m) {
				continue
			}
			v, bC := st.completionAfterSwap(int(a), b)
			if bC > v {
				v = bC
			}
			if v < best || (v == best && (apos < bestAPos || (apos == bestAPos && b < bestB))) {
				best, bestAPos, bestB = v, apos, b
			}
		}
	}
	if bestB < 0 {
		return math.Inf(1), -1, -1
	}
	return best, int(critJobs[bestAPos]), bestB
}

// checkBruteCriticalSwap compares the query with the brute-force oracle
// bit for bit, twice: a query leaves nothing behind that the next one on
// the same state could read.
func checkBruteCriticalSwap(t *testing.T, st *State, what string) {
	t.Helper()
	wv, wa, wb := bruteCriticalSwap(st)
	for q := 0; q < 2; q++ {
		gv, ga, gb := st.Scans(DefaultObjective).BestCriticalSwap()
		if math.Float64bits(gv) != math.Float64bits(wv) || ga != wa || gb != wb {
			t.Fatalf("%s: cached scan (%x,%d,%d) != brute force (%x,%d,%d)", what, gv, ga, gb, wv, wa, wb)
		}
	}
}

// f32Instance is a generated instance on the float32 ETC backing.
func f32Instance(jobs, machs int, seed uint64) *etc.Instance {
	in, err := etc.GenSpec{Jobs: jobs, Machs: machs,
		Class: etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		Seed:  seed, Float32: true}.Generate()
	if err != nil {
		panic(err)
	}
	return in
}

// bruteInstances is scanInstances plus float32-backed and tiny ones; the
// tiny shapes make empty, single-job and one-job-critical machines
// common.
func bruteInstances() []*etc.Instance {
	return append(scanInstances(),
		f32Instance(64, 8, 87),
		f32Instance(7, 5, 88),
		tieInstance(6, 5, 89),
		tieInstance(12, 6, 90),
	)
}

// runBruteProgram drives a state over in through a byte program — three
// bytes per step: an opcode and two operands — and checks the query
// against the brute-force oracle after every step. Steps are moves,
// swaps, scan-exemption toggles, drains that pile one machine's jobs
// onto another (emptying it), and runs of commits of the query's own
// winning swap: the LMCTS traffic, where every commit changes the
// critical machine's contents and the bound carried across partner
// machines is tightest.
func runBruteProgram(t *testing.T, in *etc.Instance, seed uint64, prog []byte) {
	st := NewState(in, NewRandom(in, rng.New(seed)))
	checkBruteCriticalSwap(t, st, "start")
	for i := 0; i+2 < len(prog); i += 3 {
		x, y := int(prog[i+1]), int(prog[i+2])
		what := fmt.Sprintf("%s step %d (op %d %d %d)", in.Name, i/3, prog[i], x, y)
		switch prog[i] % 9 {
		case 0, 1, 2:
			st.Move(x%in.Jobs, y%in.Machs)
		case 3, 4:
			st.Swap(x%in.Jobs, y%in.Jobs)
		case 5:
			m := x % in.Machs
			st.SetScanExempt(m, st.scanExempt == nil || !st.scanExempt[m])
		case 6:
			from, to := x%in.Machs, y%in.Machs
			for len(st.JobsOn(from)) > 0 && from != to {
				st.Move(int(st.JobsOn(from)[0]), to)
			}
		case 7:
			for k := range 1 + x%8 {
				_, a, b := st.Scans(DefaultObjective).BestCriticalSwap()
				if b < 0 {
					break
				}
				st.Swap(a, b)
				checkBruteCriticalSwap(t, st, fmt.Sprintf("%s, winner %d", what, k))
			}
		default:
			st.SetSchedule(NewRandom(in, rng.New(seed+uint64(x))))
		}
		checkBruteCriticalSwap(t, st, what)
	}
}

// ljfrSJFR is the LJFR-SJFR construction of heuristics.LJFRSJFR, which
// this package's tests cannot import: jobs by ascending workload, the
// longest one per machine to the machines fastest first, then alternately
// the shortest and the longest remaining job to the machine that frees up
// first.
func ljfrSJFR(in *etc.Instance) Schedule {
	jobs, machs := make([]int, in.Jobs), make([]int, in.Machs)
	for j := range jobs {
		jobs[j] = j
	}
	for m := range machs {
		machs[m] = m
	}
	slices.SortStableFunc(jobs, func(a, b int) int { return cmp.Compare(in.Workload(a), in.Workload(b)) })
	slices.SortStableFunc(machs, func(a, b int) int { return cmp.Compare(in.Speed(b), in.Speed(a)) })
	s, avail := make(Schedule, in.Jobs), slices.Clone(in.Ready)
	place := func(j, m int) {
		s[j] = m
		avail[m] += in.At(j, m)
	}
	lo, hi := 0, len(jobs)-1
	for k := 0; k < in.Machs && lo <= hi; k, hi = k+1, hi-1 {
		place(jobs[hi], machs[k])
	}
	for shortest := true; lo <= hi; shortest = !shortest {
		m := 0
		for i, a := range avail {
			if a < avail[m] {
				m = i
			}
		}
		if shortest {
			place(jobs[lo], m)
			lo++
		} else {
			place(jobs[hi], m)
			hi--
		}
	}
	return s
}

// cellStart is an initial cMA cell: the LJFR-SJFR schedule perturbed by
// 0.3, the cMA's default.
func cellStart(in *etc.Instance, r *rng.Source) Schedule {
	s := ljfrSJFR(in)
	Perturb(s, in, r, 0.3)
	return s
}

// braunInstance is the Braun 512×16 benchmark instance of that name.
func braunInstance(name string) *etc.Instance {
	in, err := etc.GenerateByName(name)
	if err != nil {
		panic(err)
	}
	return in
}

// lmctsInstances are the shapes the benchmark's LMCTS traffic runs on:
// three of the Braun instances and a float32 frontier-style one.
func lmctsInstances() []*etc.Instance {
	return []*etc.Instance{braunInstance("u_c_hihi.0"), braunInstance("u_i_lolo.0"),
		braunInstance("u_s_hilo.0"), f32Instance(2048, 64, 93)}
}

// TestBestCriticalSwapMatchesBruteForce pins the bounded scan against
// the brute-force oracle: random byte programs over random, consistent,
// semi-consistent, tie-heavy integer (duplicate partner invariants, where
// the (aPos, b) tie-break binds) and float32-backed instances; hand-built
// schedules with empty machines, single-job machines and a critical
// machine holding one job; and LMCTS runs to convergence from cMA cell
// starts on the Braun and frontier shapes, the traffic the benchmark
// runs, where the partner lists are long and the cut walks far.
func TestBestCriticalSwapMatchesBruteForce(t *testing.T) {
	for i, in := range bruteInstances() {
		r := rng.New(uint64(i) + 1000)
		prog := make([]byte, 3*400)
		for k := range prog {
			prog[k] = byte(r.Intn(256))
		}
		runBruteProgram(t, in, uint64(i)+1100, prog)
	}
	for _, in := range bruteInstances() {
		// Everything on machine 0 but one job per other machine: single-job
		// partners, and the same with every other machine empty.
		s := make(Schedule, in.Jobs)
		for j := 1; j < in.Jobs && j < in.Machs; j++ {
			s[j] = j
		}
		st := NewState(in, s)
		checkBruteCriticalSwap(t, st, in.Name+" single-job partners")
		st.SetSchedule(make(Schedule, in.Jobs))
		checkBruteCriticalSwap(t, st, in.Name+" all on one machine")
		// A critical machine with one job: the job with the largest
		// ETC alone on machine 0, the rest spread over the others.
		if in.Machs < 2 {
			continue
		}
		big := 0
		for j := range s {
			if in.At(j, 0) > in.At(big, 0) {
				big = j
			}
		}
		for j := range s {
			s[j] = 1 + j%(in.Machs-1)
		}
		s[big] = 0
		st.SetSchedule(s)
		checkBruteCriticalSwap(t, st, in.Name+" one-job critical machine")
	}
	o := DefaultObjective
	for i, in := range lmctsInstances() {
		st := NewState(in, cellStart(in, rng.New(uint64(i)+1400)))
		sc := st.Scans(o)
		cur := sc.Fitness()
		for step := 0; ; step++ {
			checkBruteCriticalSwap(t, st, fmt.Sprintf("%s LMCTS step %d", in.Name, step))
			_, a, b := sc.BestCriticalSwap()
			if b < 0 {
				break
			}
			f := st.FitnessAfterSwap(o, a, b)
			if f >= cur {
				break
			}
			st.Swap(a, b)
			cur = f
		}
	}
}

// FuzzBestCriticalSwap runs byte programs (runBruteProgram) over the
// instances of bruteInstances, checking the critical-swap query against
// the brute-force oracle after every step. The corpus is seeded with one
// program per scanInstances instance.
func FuzzBestCriticalSwap(f *testing.F) {
	instances := bruteInstances()
	for i := range scanInstances() {
		r := rng.New(uint64(i) + 1200)
		prog := make([]byte, 3*40)
		for k := range prog {
			prog[k] = byte(r.Intn(256))
		}
		f.Add(uint8(i), uint64(i)+1300, prog)
	}
	f.Fuzz(func(t *testing.T, pick uint8, seed uint64, prog []byte) {
		if len(prog) > 3*128 {
			return // longer programs only repeat the same checks
		}
		runBruteProgram(t, instances[int(pick)%len(instances)], seed, prog)
	})
}

// TestCachedMoveProbesMatchScalar pins the cache's move-side context:
// Fitness and FitnessAfterMove served through the epoch-revalidated
// moveScan must equal the direct reads bit for bit across random
// commit/probe interleavings.
func TestCachedMoveProbesMatchScalar(t *testing.T) {
	o := DefaultObjective
	for i, in := range scanInstances() {
		r := rng.New(uint64(i) + 900)
		st := NewState(in, NewRandom(in, r))
		sc := st.Scans(o)
		for step := 0; step < 600; step++ {
			j, to := r.Intn(in.Jobs), r.Intn(in.Machs)
			if got, want := sc.Fitness(), o.Of(st); got != want {
				t.Fatalf("instance %d step %d: cached fitness %x != %x", i, step, got, want)
			}
			if got, want := sc.FitnessAfterMove(j, to), st.FitnessAfterMove(o, j, to); got != want {
				t.Fatalf("instance %d step %d: cached probe %x != %x", i, step, got, want)
			}
			if step%3 == 0 {
				st.Move(j, to)
			}
		}
	}
}

// TestScanExemptCriticalMachine pins that exemption covers both sides of
// the critical-swap scan: an exempt machine is skipped as a sweep
// partner, and when it is itself the critical machine its jobs are not
// swept as swap sources either — the query reports no candidate, per the
// SetScanExempt contract that no proposed swap ever involves an exempt
// machine. Re-admitting the machine restores the full-sweep winner.
func TestScanExemptCriticalMachine(t *testing.T) {
	in := scanInstances()[0]
	r := rng.New(990)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(DefaultObjective)
	crit := st.MakespanMachine()
	st.SetScanExempt(crit, true)
	if v, a, b := sc.BestCriticalSwap(); !math.IsInf(v, 1) || a != -1 || b != -1 {
		t.Fatalf("exempt critical machine still scanned: (%v,%d,%d)", v, a, b)
	}
	st.SetScanExempt(crit, false)
	gv, ga, gb := sc.BestCriticalSwap()
	mirror := NewState(in, st.Schedule())
	wv, wa, wb := refCriticalSwap(mirror)
	if gv != wv || ga != wa || gb != wb {
		t.Fatalf("re-admitted scan (%x,%d,%d) != full sweep (%x,%d,%d)", gv, ga, gb, wv, wa, wb)
	}
}

// TestBestMoveTargetMatchesSweepFold pins the cache's steepest-transfer
// helper against a direct fold over the move sweep.
func TestBestMoveTargetMatchesSweepFold(t *testing.T) {
	o := DefaultObjective
	in := scanInstances()[2] // tie-heavy: the strict-< fold must bind
	r := rng.New(77)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(o)
	out := make([]float64, in.Machs)
	for step := 0; step < 400; step++ {
		j := r.Intn(in.Jobs)
		fits := st.FitnessAfterMoveSweep(o, j, out)
		from := st.Assign(j)
		wantFit, wantTo := fits[from], from
		for to, f := range fits {
			if to != from && f < wantFit {
				wantFit, wantTo = f, to
			}
		}
		gotFit, gotTo := sc.BestMoveTarget(j)
		if gotFit != wantFit || gotTo != wantTo {
			t.Fatalf("step %d: BestMoveTarget (%x,%d) != fold (%x,%d)", step, gotFit, gotTo, wantFit, wantTo)
		}
		if wantTo != from {
			st.Move(j, wantTo)
		}
	}
}

// TestMachineEpochSemantics pins the change-tracking protocol the
// daemon's digest and the move-probe context read: a commit advances
// exactly its source and target machine epochs (and the state epoch), a
// no-op Move or Swap advances no epoch, and wholesale re-evaluations
// (SetSchedule, CopyFrom) advance every machine's epoch.
func TestMachineEpochSemantics(t *testing.T) {
	in := etc.Generate(etc.Class{}, 0, etc.GenerateOptions{Jobs: 40, Machs: 5, Seed: 60})
	r := rng.New(3)
	st := NewState(in, NewRandom(in, r))
	epochs := func() []uint64 {
		e := make([]uint64, in.Machs)
		for m := range e {
			e[m] = st.MachEpoch(m)
		}
		return e
	}
	j := 0
	from := st.Assign(j)
	to := (from + 1) % in.Machs
	before := epochs()
	st.Move(j, to)
	for m, e := range epochs() {
		if moved := e != before[m]; moved != (m == from || m == to) {
			t.Fatalf("Move(%d→%d): machine %d epoch %d→%d", from, to, m, before[m], e)
		}
	}
	if st.MachEpoch(from) != st.Epoch() || st.MachEpoch(to) != st.Epoch() {
		t.Fatalf("Move: source/target epochs %d/%d, state epoch %d",
			st.MachEpoch(from), st.MachEpoch(to), st.Epoch())
	}
	b := -1
	for k := range in.Jobs {
		if st.Assign(k) != to && st.Assign(k) != from {
			b = k
			break
		}
	}
	if b < 0 {
		t.Fatal("no job off the moved machines")
	}
	mb := st.Assign(b)
	before = epochs()
	st.Swap(j, b)
	for m, e := range epochs() {
		if moved := e != before[m]; moved != (m == to || m == mb) {
			t.Fatalf("Swap(%d,%d): machine %d epoch %d→%d", j, b, m, before[m], e)
		}
	}
	epoch := st.Epoch()
	before = epochs()
	st.Move(j, st.Assign(j)) // no-op: already there
	st.Swap(j, j)            // no-op
	if st.Epoch() != epoch || !slices.Equal(epochs(), before) {
		t.Fatal("no-op Move/Swap advanced an epoch")
	}
	st.SetSchedule(NewRandom(in, r))
	for m, e := range epochs() {
		if e == before[m] || e != st.Epoch() {
			t.Fatalf("SetSchedule: machine %d epoch %d, state epoch %d", m, e, st.Epoch())
		}
	}
	before = epochs()
	st.CopyFrom(NewState(in, NewRandom(in, r)))
	for m, e := range epochs() {
		if e == before[m] || e != st.Epoch() {
			t.Fatalf("CopyFrom: machine %d epoch %d, state epoch %d", m, e, st.Epoch())
		}
	}
}

// TestCachedScanAllocationFree asserts the query path of the cache —
// a commit, then critical-swap queries and a move probe, the cycle a
// local search step runs — never allocates once the state's scratch
// buffers have grown.
func TestCachedScanAllocationFree(t *testing.T) {
	in := etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
		0, etc.GenerateOptions{Seed: 86, Jobs: 128, Machs: 16})
	o := DefaultObjective
	r := rng.New(4)
	st := NewState(in, NewRandom(in, r))
	sc := st.Scans(o)
	for range 100 { // grow the scratch buffers
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		sc.BestCriticalSwap()
	}
	if n := testing.AllocsPerRun(100, func() {
		st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
		sc.BestCriticalSwap()
		sc.BestCriticalSwap()
		sc.FitnessAfterMove(r.Intn(in.Jobs), r.Intn(in.Machs))
	}); n != 0 {
		t.Errorf("cached scan allocates %v per query cycle", n)
	}
}

// BenchmarkCachedScanCritSwap measures the path LMCTS pays: commit the
// query's own winning swap, which changes the critical machine's
// contents, then query again — one bounded pass over every partner
// machine per iteration. When no swap reduces the critical completion
// pair the state restarts from the next of a ring of starts, as a fresh
// offspring would: random schedules on two generated shapes, and cMA
// cell starts (cellStart) on the Braun instance u_c_hihi.0, the traffic
// of the paper's experiment. Must report 0 allocs/op: CI runs every
// CachedScan benchmark with -benchtime=1x and fails otherwise.
func BenchmarkCachedScanCritSwap(b *testing.B) {
	generated := func(jobs, machs int) *etc.Instance {
		return etc.Generate(etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High},
			0, etc.GenerateOptions{Seed: 1, Jobs: jobs, Machs: machs})
	}
	for _, bc := range []struct {
		name  string
		in    *etc.Instance
		start func(*etc.Instance, *rng.Source) Schedule
	}{
		{"512x16", generated(512, 16), NewRandom},
		{"2048x64", generated(2048, 64), NewRandom},
		{"u_c_hihi.0", braunInstance("u_c_hihi.0"), cellStart},
	} {
		b.Run(bc.name, func(b *testing.B) {
			in := bc.in
			r := rng.New(7)
			starts := make([]Schedule, 8)
			for i := range starts {
				starts[i] = bc.start(in, r)
			}
			st := NewState(in, starts[0])
			sc := st.Scans(DefaultObjective)
			restarts := 0
			step := func() {
				v, a, p := sc.BestCriticalSwap()
				if p < 0 || v >= st.Makespan() {
					restarts++
					st.SetSchedule(starts[restarts%len(starts)])
					return
				}
				st.Swap(a, p)
			}
			for restarts < len(starts) { // warm every start's buffers
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
