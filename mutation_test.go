package gridcma_test

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one row of the checked mutation list: replacing the exact
// fragment from of file (a path from the module root, where from occurs
// exactly once) by to must make the tests of pkg that match run fail.
// why says what the row pins.
type mutant struct {
	file, from, to string
	pkg, run       string
	why            string
}

// goldenRun selects the root package's golden trajectories.
const goldenRun = "^TestGoldenSchedules$"

// killedMutants is the checked mutation list: each row is a behaviour the
// tests pin. A row whose mutant survives is a hole in the tests, to be
// filled, not a row to drop; a row whose fragment has moved must be
// updated with the code.
var killedMutants = []mutant{
	// Engine parameters and acceptance rules, pinned by the golden
	// trajectories.
	{"internal/tabu/tabu.go", "tenure := max(in.Jobs/4, 4)", "tenure := max(in.Jobs/3, 4)",
		".", goldenRun, "tabu's tenure"},
	{"internal/ga/ga.go", "Braun: {popSize: 200,", "Braun: {popSize: 199,",
		".", goldenRun, "the Braun GA's population"},
	{"internal/ga/ga.go", "initialTempFactor: 0.1, cooling: 0.99},", "initialTempFactor: 0.1, cooling: 0.98},",
		".", goldenRun, "GSA's cooling factor"},
	{"internal/ga/ga.go", "\t\tif !accept && g.temp > 0 {", "\t\tif false && !accept && g.temp > 0 {",
		".", goldenRun, "GSA's Metropolis acceptance"},
	{"internal/ga/ga.go", "\t\tif f < g.fit[closest] {", "\t\tif false && f < g.fit[closest] {",
		".", goldenRun, "the Struggle GA's replacement"},
	{"internal/sa/sa.go", "\tcooling = 0.9\n", "\tcooling = 0.91\n",
		".", goldenRun, "SA's cooling factor"},
	{"internal/sa/sa.go", "\t\ttemp *= cooling\n", "",
		".", goldenRun, "SA's cooling"},
	// The one budget loop every engine runs.
	{"internal/run/run.go", "\treport()\n\tfor !budget.Done(iter, start) {", "\tfor !budget.Done(iter, start) {",
		"./internal/run", "^TestLoop", "the loop reports the incumbent before the first iteration"},
	{"internal/run/run.go", "\t\tstep(iter)\n\t\titer++\n\t\treport()\n", "\t\treport()\n\t\tstep(iter)\n\t\titer++\n",
		"./internal/run", "^TestLoop", "the loop reports after each iteration, not before it"},
	{"internal/run/run.go", "\t\tIterations: iter, Elapsed: time.Since(start),", "\t\tElapsed: time.Since(start),",
		"./internal/run", "^TestLoop", "the loop's result counts its iterations"},
	{"internal/evalpool/evalpool.go", "b.makespan, b.flowtime = st.Makespan(), st.FoldedFlowtime()",
		"b.makespan, b.flowtime = st.Makespan(), st.Flowtime()",
		".", goldenRun, "the best-tracker records a fresh evaluation's flowtime"},

	// The evaluation layer's replay loops, pinned by the golden
	// trajectories and the scan differentials.
	{"internal/schedule/state.go", "\t\tt += col[j]\n\t\tflow += t\n", "\t\tt += col[j]\n",
		".", goldenRun, "refreshFrom's flowtime accumulation"},
	{"internal/schedule/state.go", "\tif ea, eb := col[a], col[b]; ea != eb {\n\t\treturn ea < eb\n\t}\n\treturn a < b",
		"\tif ea, eb := col[a], col[b]; ea != eb {\n\t\treturn ea < eb\n\t}\n\treturn a > b",
		"./internal/schedule", "^TestCommitSuffixDifferential$", "the id tie-break of an insertion's slot"},
	{"internal/schedule/kernels.go", "\tif k < len(jobs) {", "\tif false && k < len(jobs) {",
		"./internal/schedule", "^TestBestCriticalSwapMatchesBruteForce$", "gatherColumn's odd last job"},
	{"internal/schedule/scancache.go", "for cut > 1 && c+u[cut-1] > best {", "for cut > 1 && c+u[cut-1] >= best {",
		"./internal/schedule", "^(TestCachedScanMatchesFullSweep|TestLMCTSCachedMatchesSweepReference)$", "bestOn's strict row cut"},
	{"internal/schedule/scancache.go", "(int32(apos) == bestAPos && b < bestB)", "(int32(apos) == bestAPos && b > bestB)",
		"./internal/schedule", "^(TestCachedScanMatchesFullSweep|TestLMCTSCachedMatchesSweepReference)$", "bestOn's partner tie-break"},
	{"internal/localsearch/localsearch.go", "+ etc[mb*jobs+int(a)]", "+ etc[mb*jobs+b]",
		"./internal/localsearch", "^TestSampledCriticalSwapMatchesOracle$", "the sampled scan's partner-side completion"},

	// Machine versions, pinned by FuzzStateCopy's seed corpus.
	{"internal/schedule/state.go",
		"\tst.refreshFrom(ma, min(ka, int(st.slot[b])))\n\tst.refreshFrom(mb, min(kb, int(st.slot[a])))\n",
		"\tva, vb := st.machEpoch[ma], st.machEpoch[mb]\n\tst.refreshFrom(ma, min(ka, int(st.slot[b])))\n\tst.refreshFrom(mb, min(kb, int(st.slot[a])))\n\tst.machEpoch[ma], st.machEpoch[mb] = va, vb\n",
		"./internal/schedule", "^FuzzStateCopy$", "Swap draws fresh versions"},
	{"internal/schedule/state.go", "\tst.epoch++\n\tst.machEpoch[m] = nextVersion()\n}", "\tst.epoch++\n}",
		"./internal/schedule", "^FuzzStateCopy$", "InvalidateMachine draws a fresh version"},
	{"internal/schedule/state.go", "\t\tst.refreshFrom(int(m), int(lo[m]))\n",
		"\t\tv := st.machEpoch[m]\n\t\tst.refreshFrom(int(m), int(lo[m]))\n\t\tst.machEpoch[m] = v\n",
		"./internal/schedule", "^FuzzStateCopy$", "SetScheduleDiff draws fresh versions"},
	{"internal/schedule/state.go", "\t\tst.machCumF[m] = append(st.machCumF[m][:0], src.machCumF[m]...)\n",
		"\t\tst.machCumF[m] = st.machCumF[m][:len(src.machCumF[m])]\n",
		"./internal/schedule", "^FuzzStateCopy$", "CopyFrom copies the prefix sums"},
	{"internal/schedule/state.go", "\tst.epoch++\n\tst.assign.CopyFrom(src.assign)\n", "\tst.assign.CopyFrom(src.assign)\n",
		"./internal/schedule", "^FuzzStateCopy$", "CopyFrom advances the epoch"},

	// Instance generation and validation.
	{"internal/etc/gen.go", "if q < 1 {\n\t\t\tq = 1 // keep", "if q < 500 {\n\t\t\tq = 500 // keep",
		"./internal/etc", "^TestGenSpecGoldenDigests$", "the CVB task-mean clamp"},
	{"internal/etc/rowsort.go", "\tcase Consistent:\n\t\tsortRow(row, 1, s)\n", "\tcase Consistent:\n",
		"./internal/etc", "^TestGenerateConsistency$", "the consistent row sort"},
	// The short-row sorting networks: a missing compare–exchange leaves
	// some 0–1 input unsorted, and some Braun row with it. The batched
	// uniform draw must hand its state back, or the next draw repeats.
	{"internal/etc/rowsort.go", "\ta0, a13 = min(a0, a13), max(a0, a13)\n", "",
		"./internal/etc", "^TestSortRowZeroOne$", "the 16-input network's first comparator, by the 0–1 test"},
	{"internal/etc/rowsort.go", "\ta0, a13 = min(a0, a13), max(a0, a13)\n", "",
		"./internal/etc", "^TestBraunGoldenDigests$", "the 16-input network's first comparator, by the Braun digests"},
	{"internal/etc/rowsort.go", "\ta1, a5 = min(a1, a5), max(a1, a5)\n", "",
		"./internal/etc", "^TestSortRowZeroOne$", "a comparator of the 8-input network, by the 0–1 test"},
	{"internal/etc/rowsort.go", "\ta1, a5 = min(a1, a5), max(a1, a5)\n", "",
		"./internal/etc", "^TestBraunGoldenDigests$", "a comparator of the 8-input network, by the Braun digests"},
	{"internal/rng/rng.go", "\t\tdst[i] = unit(x)\n\t}\n\tr.s = [4]uint64{s0, s1, s2, s3}\n", "\t\tdst[i] = unit(x)\n\t}\n",
		"./internal/rng", "^TestFloat64IntoKnownAnswers$", "Float64Into writes its state back, by its known state"},
	{"internal/rng/rng.go", "\t\tdst[i] = unit(x)\n\t}\n\tr.s = [4]uint64{s0, s1, s2, s3}\n", "\t\tdst[i] = unit(x)\n\t}\n",
		"./internal/etc", "^TestBraunGoldenDigests$", "Float64Into writes its state back, by the Braun digests"},
	{"internal/etc/etc.go", "\t\t\t\tcs += v\n", "",
		"./internal/etc", "^TestMachineMajorMatchesRowMajor$", "Finalize's column sums"},
	{"internal/etc/etc.go", "!(v > 0) || math.IsInf(v, 1)", "v < 0 || math.IsInf(v, 1)",
		"./internal/etc", "^TestValidateCatchesBadInstances$", "Validate refuses zero and NaN entries"},

	// The arm64 fused multiply–add gate.
	{"internal/etc/etc.go", "return 1 + float64(u*(spread-1))", "return 1 + u*(spread-1)",
		".", "^TestFusedMultiplyAddAllowlist$", "PairNoise's rounded product, by the arm64 listing"},

	// The block-parallel cMA's waves.
	{"internal/cell/partition.go", "\t\t\tif !blocked[w][c] {", "\t\t\tif true {",
		"./internal/cell", "^TestPartitionWavesCoverAndIndependent$", "a wave holds no interacting cells"},

	// gridd's replay of logged admissions, its replication server and a
	// bootstrapped follower's restart.
	{"internal/daemon/grid.go", "\t\t\tcand[g.byID[mv.Job]] = g.machByID[mv.Mach]\n", "\t\t\t_ = mv\n",
		"./internal/daemon", "^TestAdmitOutcomeDifferential$", "replay applies each admission's logged outcome"},
	{"internal/daemon/repl.go", "const maxReplCursors = 32", "const maxReplCursors = 33",
		"./internal/daemon", "^TestReplServerBoundsCursors$", "the documented cursor cap, from above"},
	{"internal/daemon/repl.go", "const maxReplCursors = 32", "const maxReplCursors = 31",
		"./internal/daemon", "^TestReplServerBoundsCursors$", "the documented cursor cap, from below"},
	{"internal/daemon/recover.go", "\tif snapPath == \"\" && logPath != \"\" {\n\t\tsnapPath = logSnapPath(logPath)\n\t}\n", "",
		"./internal/daemon", "^TestReplicationSnapshotBootstrap$", "a restart with no snapshot named restores the one beside the WAL"},
	{"internal/daemon/repl.go",
		"\t\tif err := SaveSnapshot(snap, logSnapPath(d.cfg.LogPath)); err != nil {\n\t\t\treturn fmt.Errorf(\"%w: %w\", errBootstrapSave, err)\n\t\t}\n\t\tif err := d.walFile.Truncate(0); err != nil {\n\t\t\treturn fmt.Errorf(\"daemon: truncating WAL for bootstrap: %w\", err)\n\t\t}\n",
		"\t\tif err := d.walFile.Truncate(0); err != nil {\n\t\t\treturn fmt.Errorf(\"daemon: truncating WAL for bootstrap: %w\", err)\n\t\t}\n\t\tif err := SaveSnapshot(snap, logSnapPath(d.cfg.LogPath)); err != nil {\n\t\t\treturn fmt.Errorf(\"%w: %w\", errBootstrapSave, err)\n\t\t}\n",
		"./internal/daemon", "^TestBootstrapSaveFailureLeavesFollowerIntact$", "a follower saves its bootstrap snapshot before it truncates its WAL"},

	// The parking column's scan exemption, on every path that builds the
	// grid's State: with LMCTS the only search, it alone keeps a swap off
	// parked slots. And gridd's default admission budget. The grid's
	// cross-version goldens pin both.
	{"internal/daemon/grid.go", "g.parkedSchedule(cfg.JobCap))\n\tg.st.SetScanExempt(p, true)",
		"g.parkedSchedule(cfg.JobCap))\n\tg.st.SetScanExempt(p, false)",
		"./internal/daemon", "^TestGridGoldenDigests$", "NewGrid exempts the parking column from scans"},
	{"internal/daemon/grid.go", "schedule.NewState(inst, sched)\n\tg.st.SetScanExempt(p, true)",
		"schedule.NewState(inst, sched)\n\tg.st.SetScanExempt(p, false)",
		"./internal/daemon", "^TestGridGoldenDigests$", "grow exempts the parking column from scans"},
	{"internal/daemon/snapshot.go", "\tg.st.SetScanExempt(p, true)\n", "\tg.st.SetScanExempt(p, false)\n",
		"./internal/daemon", "^TestGridGoldenDigests$", "Restore exempts the parking column from scans"},
	{"internal/daemon/grid.go", "\t\tLSIters: 5,\n", "\t\tLSIters: 4,\n",
		"./internal/daemon", "^TestGridGoldenDigests$", "gridd's default admission budget"},

	// A join's column write: every job on a real machine reads its value
	// in the joined column. LMCTS reads the alive machines' jobs, which
	// the goldens pin; LiveInstance also reads the jobs stranded on
	// departed machines, which TestAdmissionSettlesRows checks.
	{"internal/daemon/grid.go", "\t\t\tcol[s] = g.etcOf(g.jobs[s].id, g.jobs[s].base, ms)\n", "\t\t\t_, _ = col[s], ms\n",
		"./internal/daemon", "^TestGridGoldenDigests$", "a join writes the placed jobs' rows"},
	{"internal/daemon/grid.go", "\t\tfor _, s := range g.st.JobsOn(m) {\n\t\t\tcol[s]",
		"\t\tfor _, s := range g.st.JobsOn(m) {\n\t\t\tif !g.machs[m].alive {\n\t\t\t\tcontinue\n\t\t\t}\n\t\t\tcol[s]",
		"./internal/daemon", "^TestAdmissionSettlesRows$", "a join writes the rows of jobs stranded on departed machines"},

	// The distributed island coordinator and the retry policy.
	{"internal/island/dist/dist.go", "\tif c.MaxRestarts == 0 {\n\t\treturn 3\n", "\tif c.MaxRestarts == 0 {\n\t\treturn 2\n",
		"./internal/island/dist", "^TestDefaultRestartBudget$", "the default restart budget, from below"},
	{"internal/island/dist/dist.go", "\tif c.MaxRestarts == 0 {\n\t\treturn 3\n", "\tif c.MaxRestarts == 0 {\n\t\treturn 4\n",
		"./internal/island/dist", "^TestDefaultRestartBudget$", "the default restart budget, from above"},
	// The release that ends every run: the coordinator sends it, the
	// worker drops its stashed meshes and its scratch pool.
	{"internal/island/dist/worker.go", "\t\tw.release(req.Instance)\n", "",
		"./internal/island/dist", "^TestStashBounded$", "the worker honours a release"},
	{"internal/island/dist/dist.go", "\tdefer c.release(ctx)\n", "",
		"./internal/island/dist", "^TestStashBounded$", "the coordinator releases its workers at a run's end"},
	{"internal/island/dist/worker.go", "\t\t\twi.pool, wi.stash = nil, nil\n", "\t\t\twi.stash = nil\n",
		"./internal/island/dist", "^TestStashBounded$", "a release drops the scratch pool"},
	{"internal/island/dist/dist.go", "\t\tif ctx.Err() == nil {\n\t\t\tc.markDeadLocked(h)\n\t\t}\n", "\t\tc.markDeadLocked(h)\n",
		"./internal/island/dist", "^TestStashBounded$", "a call the run's cancellation cut short leaves its worker live for the release"},
	{"internal/island/dist/dist.go", "\tc.restarts, c.recoveries = 0, nil\n", "",
		"./internal/island/dist", "^TestReusedCoordinatorReportsItsOwnRun$", "a run's report counts only its own restarts and recoveries"},
	{"internal/retry/retry.go", "const jitter = 0.2", "const jitter = 0",
		"./internal/retry", "^TestJitterIsDeterministicPerSeed$", "retry's jitter"},
}

// equivalentMutants are mutations no test can kill because the program
// behaves the same with them, each with the reason. Only their fragments
// are checked, so the reasons are re-read when the code moves.
var equivalentMutants = []struct{ file, from, to, reason string }{
	{"internal/schedule/probe.go", "if p := st.insertPos(m, in); p < start {", "if p := st.insertPos(m, in); p <= start {",
		"when p equals start both branches leave start at the same slot"},
	{"internal/schedule/kernels.go", "\t\tlo0 = min(lo0, u[k])\n", "\t\tlo1 = min(lo1, u[k])\n",
		"the odd last entry may join either chain: both feed the returned minimum"},
	{"internal/etc/rowsort.go", "\tcase n > 16:\n", "\tcase n > 8:\n",
		"rows of 9 to 16 entries then take the counting kernel, which writes the same bytes: " +
			"a sorted multiset has one order, and only BenchmarkSortRow sees the difference"},
	{"internal/etc/rowsort.go", "\tif n > 8 {\n\t\tsize = 16\n", "\tif n > 0 {\n\t\tsize = 16\n",
		"short rows then take the padded 16-input network instead of the 8-input one: the same bytes, " +
			"and only BenchmarkSortRow sees the difference"},
}

// TestMutantsAreKilled applies each row of killedMutants to its own copy
// of the module and runs the row's tests there with the go command that
// runs this test, one row at a time. It fails on a mutant that survives,
// on one that does not build, and on a fragment that is not found
// exactly once. First every row's tests must pass on an unmutated copy,
// so that no row is killed by a copy that lacks something. Builds share
// the build cache: -trimpath keeps the copies' directories out of the
// cache keys.
func TestMutantsAreKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds and runs a package's tests once per mutant")
	}
	for _, e := range equivalentMutants {
		if e.reason == "" {
			t.Errorf("%s: equivalent mutant %q has no reason", e.file, e.from)
		}
		readFragment(t, e.file, e.from)
	}
	t.Run("unmutated", func(t *testing.T) {
		dir := copyModule(t)
		ran := map[[2]string]bool{}
		for _, m := range killedMutants {
			if key := [2]string{m.pkg, m.run}; !ran[key] {
				ran[key] = true
				if out, err := goTest(dir, m.run, m.pkg); err != nil {
					t.Errorf("go test -run '%s' %s fails unmutated: %v\n%s", m.run, m.pkg, err, out)
				}
			}
		}
	})
	for _, m := range killedMutants {
		t.Run(m.why, func(t *testing.T) {
			src := readFragment(t, m.file, m.from)
			dir := copyModule(t)
			mutated := strings.Replace(src, m.from, m.to, 1)
			if err := os.WriteFile(filepath.Join(dir, m.file), []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := goTest(dir, m.run, m.pkg)
			switch {
			case err == nil:
				t.Errorf("mutant survived: %s: %q → %q, go test -run '%s' %s passes",
					m.file, m.from, m.to, m.run, m.pkg)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Errorf("mutant does not build: %s: %q → %q:\n%s", m.file, m.from, m.to, out)
			}
		})
	}
}

// goTest runs the tests of pkg that match run in the module copy dir.
func goTest(dir, run, pkg string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-count=1", "-trimpath", "-run", run, pkg)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// readFragment returns the source of file and fails the test unless
// fragment occurs in it exactly once.
func readFragment(t *testing.T, file, fragment string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(file))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), fragment); n != 1 {
		t.Fatalf("%s: fragment %q found %d times, want once (update the row with the code)", file, fragment, n)
	}
	return string(data)
}

// copyModule copies the module's source (every file outside the
// dot-directories and the benchmark module) into a fresh directory.
func copyModule(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, path), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
