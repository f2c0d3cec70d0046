package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridcma/internal/chaos"
	"gridcma/internal/config"
	"gridcma/internal/etc"
	"gridcma/internal/island"
	"gridcma/internal/retry"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
	"gridcma/internal/transport"
)

// tortureConfig parameterises the deterministic chaos torture.
type tortureConfig struct {
	// Faults is the total seeded-fault budget across all cases.
	Faults int
	// Seed derives every case's fault plan; the same seed reproduces the
	// same torture bit for bit.
	Seed uint64
	// Timeout bounds each individual run: a hung barrier is a failure,
	// not a wait.
	Timeout time.Duration
	// Logf receives per-case progress (nil = silent).
	Logf func(format string, args ...any)
}

// tortureReport summarises a completed torture.
type tortureReport struct {
	Cases    int
	Faults   int
	Degraded int // cases that lost islands (and still finished)
	Restarts int // supervisor restarts across all runs
}

// faultsPerCase is how many seeded faults each torture case carries —
// small enough that worst-case fault pile-up on one (worker, round) key
// stays under the retry budget, so transient faults can never kill an
// island the survivor oracle expects alive.
const faultsPerCase = 4

// tortureRig is the fixed scenario every case replays: a small instance,
// a small cMA, 4 islands on 2 workers, 4 migration rounds.
type tortureRig struct {
	in     *etc.Instance
	dcfg   Config
	iters  int
	rounds int
}

func newTortureRig() (*tortureRig, error) {
	gs, err := etc.ParseGenSpec("64x8:c_hihi:s5")
	if err != nil {
		return nil, err
	}
	in, err := gs.Generate()
	if err != nil {
		return nil, err
	}
	w, h, ls := 3, 3, 2
	spec := config.Spec{Width: &w, Height: &h, LSIterations: &ls}
	dcfg := Config{
		Islands:        4,
		MigrationEvery: 2,
		Migrants:       1,
		Spec:           spec,
		Workers:        2,
		CallTimeout:    10 * time.Second,
		// Fast, wide retry: worst-case transient pile-up on one key is
		// 4 faults x 2 drops = 8 failures before the call must succeed.
		Retry:       retry.Policy{MaxAttempts: 12, Initial: time.Millisecond, Max: 4 * time.Millisecond},
		MaxRestarts: 2,
	}
	return &tortureRig{in: in, dcfg: dcfg, iters: 8, rounds: 4}, nil
}

// runOnce executes one distributed run of the rig under the fault plan
// (nil = failure-free) and returns its result and report.
func (r *tortureRig) runOnce(plan []chaos.MsgFault, seed uint64, heartbeat bool, timeout time.Duration, delayUnit time.Duration) (run.Result, *Report, error) {
	workers := make([]*Worker, r.dcfg.Workers)
	for w := range workers {
		workers[w] = NewPinnedWorker(r.in)
	}
	cfg := r.dcfg
	if heartbeat {
		cfg.Heartbeat = 5 * time.Millisecond
		cfg.HeartbeatTimeout = 100 * time.Millisecond
	}
	coord, err := New(cfg, func(w int) (transport.Client, error) {
		return transport.NewLocal(workers[w]), nil
	})
	if err != nil {
		return run.Result{}, nil, err
	}
	defer coord.Close()
	if plan != nil {
		coord.SetChaos(NewChaosPlan(plan, delayUnit))
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	budget := run.Budget{MaxIterations: r.iters}.WithContext(ctx)
	return coord.Run(r.in, budget, seed)
}

// torture is the deterministic chaos harness. For every case it draws a seeded fault plan
// (chaos.MsgPlan), runs the distributed engine under it twice, and
// requires:
//
//   - bit-equality between the two runs: identical digest trajectories,
//     survivor sets and best schedules — a faulted run is a pure function
//     of (seed, plan);
//   - the survivor set predicted by the predictSurvivors oracle;
//   - for plans with no permanent death, bit-equality with the
//     failure-free distributed run AND the in-process island scheduler —
//     transient faults (drops, delays, duplicates, kills with successful
//     restart) are fully absorbed by retry and supervision;
//   - completion within the per-run timeout — degraded runs heal the
//     ring and finish on the survivors instead of hanging the barrier.
func torture(tc tortureConfig) (*tortureReport, error) {
	logf := tc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rig, err := newTortureRig()
	if err != nil {
		return nil, err
	}
	const runSeed = 1

	// Reference 1: the in-process island scheduler — the bytes every
	// failure-free distributed run must reproduce.
	base, err := rig.dcfg.Spec.Build()
	if err != nil {
		return nil, err
	}
	isl, err := island.New(island.Config{
		Islands:        rig.dcfg.Islands,
		MigrationEvery: rig.dcfg.MigrationEvery,
		Migrants:       rig.dcfg.Migrants,
		Base:           base,
	})
	if err != nil {
		return nil, err
	}
	ref := isl.Run(rig.in, run.Budget{MaxIterations: rig.iters}, runSeed, nil)

	// Reference 2: the failure-free distributed run and its digest
	// trajectory.
	cleanRes, cleanRep, err := rig.runOnce(nil, runSeed, false, tc.Timeout, 0)
	if err != nil {
		return nil, fmt.Errorf("torture: failure-free run: %w", err)
	}
	if err := sameResult(cleanRes, ref); err != nil {
		return nil, fmt.Errorf("torture: failure-free dist run diverged from in-process island scheduler: %w", err)
	}
	logf("torture: failure-free run matches in-process scheduler (fitness %.4f, %d rounds)", cleanRes.Fitness, cleanRep.Rounds)

	rep := &tortureReport{}
	for caseIdx := 0; rep.Faults < tc.Faults; caseIdx++ {
		planSeed := tc.Seed + uint64(caseIdx)*0x9e3779b97f4a7c15
		plan := chaos.MsgPlan(planSeed, faultsPerCase, rig.dcfg.Workers, rig.rounds)
		degraded := hasPermanentDeath(plan)
		want := predictSurvivors(plan, rig.dcfg.Islands, rig.dcfg.Workers, rig.rounds)
		hb := caseIdx%2 == 1

		res1, rep1, err := rig.runOnce(plan, runSeed, hb, tc.Timeout, time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("torture: case %d (plan %v): %w", caseIdx, plan, err)
		}
		res2, rep2, err := rig.runOnce(plan, runSeed, hb, tc.Timeout, time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("torture: case %d replay (plan %v): %w", caseIdx, plan, err)
		}

		if !sameInts(rep1.Survivors, want) {
			return nil, fmt.Errorf("torture: case %d: survivors %v, oracle predicted %v (plan %v)", caseIdx, rep1.Survivors, want, plan)
		}
		if !sameInts(rep1.Survivors, rep2.Survivors) {
			return nil, fmt.Errorf("torture: case %d: survivor sets differ between identical runs: %v vs %v", caseIdx, rep1.Survivors, rep2.Survivors)
		}
		if !sameStrings(rep1.Digests, rep2.Digests) {
			return nil, fmt.Errorf("torture: case %d: digest trajectories differ between identical runs", caseIdx)
		}
		if err := sameResult(res1, res2); err != nil {
			return nil, fmt.Errorf("torture: case %d: results differ between identical runs: %w", caseIdx, err)
		}
		if degraded {
			rep.Degraded++
		} else {
			if !sameStrings(rep1.Digests, cleanRep.Digests) {
				return nil, fmt.Errorf("torture: case %d: transient-only plan %v changed the digest trajectory", caseIdx, plan)
			}
			if err := sameResult(res1, ref); err != nil {
				return nil, fmt.Errorf("torture: case %d: transient-only plan %v changed the result: %w", caseIdx, plan, err)
			}
		}
		rep.Cases++
		rep.Faults += len(plan)
		rep.Restarts += rep1.Restarts + rep2.Restarts
		logf("torture: case %2d ok: %d faults, survivors %v, degraded=%v, restarts=%d", caseIdx, len(plan), rep1.Survivors, degraded, rep1.Restarts)
	}
	return rep, nil
}

func sameResult(a, b run.Result) error {
	if !schedEqual(a.Best, b.Best) {
		return fmt.Errorf("best schedules differ")
	}
	if a.Fitness != b.Fitness || a.Makespan != b.Makespan || a.Flowtime != b.Flowtime {
		return fmt.Errorf("objectives differ: (%v %v %v) vs (%v %v %v)",
			a.Fitness, a.Makespan, a.Flowtime, b.Fitness, b.Makespan, b.Flowtime)
	}
	if a.Iterations != b.Iterations {
		return fmt.Errorf("iterations differ: %d vs %d", a.Iterations, b.Iterations)
	}
	if a.Evals != b.Evals {
		return fmt.Errorf("eval counts differ: %d vs %d", a.Evals, b.Evals)
	}
	return nil
}

func schedEqual(a, b schedule.Schedule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// predictSurvivors returns the island ids expected alive after a run of
// `rounds` rounds under the fault plan: an island dies exactly when its
// pinned worker (island i → worker i % workers) has a permanent death
// scheduled before the final round completes. This is the oracle the
// torture checks every faulted run against.
func predictSurvivors(faults []chaos.MsgFault, islands, workers, rounds int) []int {
	downFrom := make(map[int]int)
	for _, f := range faults {
		if f.Kind != chaos.MsgDown {
			continue
		}
		if cur, ok := downFrom[f.Worker]; !ok || f.Round < cur {
			downFrom[f.Worker] = f.Round
		}
	}
	var out []int
	for i := 0; i < islands; i++ {
		if dr, ok := downFrom[i%workers]; ok && dr < rounds {
			continue
		}
		out = append(out, i)
	}
	return out
}

// hasPermanentDeath reports whether the plan contains any MsgDown fault
// (i.e. whether a run under it is expected to degrade).
func hasPermanentDeath(faults []chaos.MsgFault) bool {
	for _, f := range faults {
		if f.Kind == chaos.MsgDown {
			return true
		}
	}
	return false
}

// TestTortureSmall runs the full torture harness at its CI budget:
// 16 faults from the base seed 0x7041.
func TestTortureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is not a -short test")
	}
	rep, err := torture(tortureConfig{Faults: 16, Seed: 0x7041, Timeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults < 16 {
		t.Fatalf("torture stopped early: %+v", rep)
	}
	if rep.Degraded == 0 {
		t.Fatalf("fault mix never exercised permanent death: %+v", rep)
	}
}
