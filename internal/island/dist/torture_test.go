package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridcma/internal/config"
	"gridcma/internal/etc"
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
	// Fired counts the faults the injecting clients fired, by kind,
	// over every faulted run.
	Fired [numMsgKinds]int
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

// runOnce executes one distributed run of the rig, its workers' clients
// wrapped by the fault plan (nil = failure-free), and returns its result
// and report.
//
// Every call of the worker factory builds a fresh Worker, as restarting a
// real islandd process does: a restarted worker has lost its stash and
// must rebuild its islands' meshes from the shipped populations.
func (r *tortureRig) runOnce(faults *faultPlan, seed uint64, timeout time.Duration) (run.Result, *Report, error) {
	factory := func(int) (transport.Client, error) {
		return transport.NewLocal(NewPinnedWorker(r.in)), nil
	}
	if faults != nil {
		factory = faults.wrap(factory)
	}
	coord, err := New(r.dcfg, factory)
	if err != nil {
		return run.Result{}, nil, err
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	budget := run.Budget{MaxIterations: r.iters}.WithContext(ctx)
	return coord.Run(r.in, budget, seed)
}

// runFaulted is runOnce under a fresh interpreter of plan; it adds the
// faults that fired to fired. Every drop or transient kill that fires
// fails a call, and the supervisor restarts the worker before the next
// attempt, so a run's restarts must equal its fired failures: fewer
// means a fault was not really injected, more means a worker was
// restarted that no fault hurt.
func (r *tortureRig) runFaulted(plan []MsgFault, seed uint64, timeout time.Duration, fired *[numMsgKinds]int) (run.Result, *Report, error) {
	fp := newFaultPlan(plan, time.Millisecond)
	res, rep, err := r.runOnce(fp, seed, timeout)
	if err != nil {
		return res, rep, err
	}
	failed := fp.fired[MsgDrop] + fp.fired[MsgKill]
	if rep.Restarts != failed {
		return res, rep, fmt.Errorf("%d restarts after %d injected failures", rep.Restarts, failed)
	}
	for k, n := range fp.fired {
		fired[k] += n
	}
	return res, rep, nil
}

// torture is the deterministic chaos harness. For every case it draws a
// seeded fault plan (MsgPlan), runs the distributed engine under it
// twice, each time through fault-injecting worker clients, and requires:
//
//   - bit-equality between the two runs: identical digest trajectories,
//     survivor sets and best schedules — a faulted run is a pure function
//     of (seed, plan);
//   - the survivor set predicted by the predictSurvivors oracle;
//   - for plans with no permanent death, bit-equality with the
//     failure-free distributed run AND the wholesale reference loop —
//     transient faults (drops, delays, duplicates, kills with successful
//     restart) are fully absorbed by retry and supervision;
//   - completion within the per-run timeout — degraded runs heal the
//     ring and finish on the survivors instead of hanging the barrier;
//   - that every fault kind the plans drew fired at least once, and that
//     every drop or kill that fired cost the worker a restart, so an
//     injector that silently injects nothing cannot pass.
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

	// Reference 1: the wholesale reference loop — the bytes every
	// failure-free distributed run must reproduce.
	icfg, err := islandConfig(rig.dcfg)
	if err != nil {
		return nil, err
	}
	ref, err := runWholesale(rig.in, icfg, rig.iters, runSeed)
	if err != nil {
		return nil, err
	}

	// Reference 2: the failure-free distributed run and its digest
	// trajectory.
	cleanRes, cleanRep, err := rig.runOnce(nil, runSeed, tc.Timeout)
	if err != nil {
		return nil, fmt.Errorf("torture: failure-free run: %w", err)
	}
	if err := sameResult(cleanRes, ref); err != nil {
		return nil, fmt.Errorf("torture: failure-free dist run diverged from the reference loop: %w", err)
	}
	logf("torture: failure-free run matches the reference loop (fitness %.4f, %d rounds)", cleanRes.Fitness, cleanRep.Rounds)

	rep := &tortureReport{}
	var drawn [numMsgKinds]bool
	for caseIdx := 0; rep.Faults < tc.Faults; caseIdx++ {
		planSeed := tc.Seed + uint64(caseIdx)*0x9e3779b97f4a7c15
		plan := MsgPlan(planSeed, faultsPerCase, rig.dcfg.Workers, rig.rounds)
		degraded := hasPermanentDeath(plan)
		want := predictSurvivors(plan, rig.dcfg.Islands, rig.dcfg.Workers, rig.rounds)

		for _, f := range plan {
			drawn[f.Kind] = true
		}
		res1, rep1, err := rig.runFaulted(plan, runSeed, tc.Timeout, &rep.Fired)
		if err != nil {
			return nil, fmt.Errorf("torture: case %d (plan %v): %w", caseIdx, plan, err)
		}
		res2, rep2, err := rig.runFaulted(plan, runSeed, tc.Timeout, &rep.Fired)
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
	for k, d := range drawn {
		if d && rep.Fired[k] == 0 {
			return nil, fmt.Errorf("torture: the plans drew %v faults but none fired", MsgKind(k))
		}
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
	// The plans are pinned (TestMsgPlanKnownAnswers), so the faults the
	// two runs per case fire are too: a drop fires once per dropped call,
	// a permanent death once, when it kills its worker.
	want := [numMsgKinds]int{MsgDrop: 14, MsgDelay: 10, MsgDup: 6, MsgKill: 4, MsgDown: 2}
	if rep.Fired != want {
		t.Fatalf("faults fired %v, want %v (drop, delay, dup, kill, down)", rep.Fired, want)
	}
}
