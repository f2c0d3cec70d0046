package daemon

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gridcma/internal/chaos"
	"gridcma/internal/eventlog"
)

// crashTestConfig parameterises a crash-torture run.
type crashTestConfig struct {
	Grid Config
	// Seed drives both the event script and the fault plan.
	Seed uint64
	// Events is the script length.
	Events int
	// Kills is the number of fault points to torture.
	Kills int
	// Dir is the scratch directory.
	Dir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// crashTestResult summarises a completed torture run.
type crashTestResult struct {
	Kills        int
	TornTails    int
	CleanTails   int
	ByKind       map[string]int
	SnapshotRuns int
	Events       int
	WALBytes     int
	FinalDigest  string
}

// crashTest is the durability torture: a reference run records a
// deterministic event script, its WAL bytes and the digest after every
// event; then, for each fault in a seeded plan, the same script is
// written through a fault-injecting file handle until the fault kills
// the write path, the file is recovered exactly as a restarting daemon
// would (torn tail truncated, clean prefix replayed), the digest
// trajectory is asserted bit-identical to the reference at every step,
// the remaining script is appended to the recovered log, and the final
// WAL must be byte-for-byte the reference log. Every third kill also
// recovers through the snapshot path — atomic snapshot of the recovered
// state, reload (with a stray temp file from a simulated crashed
// snapshot write lying in the directory), then the same resume.
//
// Any deviation — an unrecoverable log, a digest off by one bit, a
// resumed WAL that differs from the reference — fails the run with the
// exact fault that triggered it, which the seed reproduces.
func crashTest(cfg crashTestConfig) (*crashTestResult, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Reference run: script, per-event digests, clean WAL bytes and the
	// byte boundary after each record.
	gen := newScriptGen(cfg.Seed, cfg.Grid.MachCap)
	ref, err := NewGrid(cfg.Grid)
	if err != nil {
		return nil, err
	}
	script := make([]eventlog.Event, 0, cfg.Events)
	digests := make([]string, 0, cfg.Events)
	var refBuf bytes.Buffer
	w := eventlog.NewWriter(&refBuf)
	bounds := []int64{0}
	for i := 0; i < cfg.Events; i++ {
		stamped, err := w.Append(gen.next())
		if err != nil {
			return nil, fmt.Errorf("crashtest: reference append %d: %w", i, err)
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		if err := ref.Apply(stamped); err != nil {
			return nil, fmt.Errorf("crashtest: reference apply %d (%+v): %w", i, stamped, err)
		}
		if stamped.Type == eventlog.Admit {
			gen.used = len(gen.alive)
		}
		script = append(script, stamped)
		digests = append(digests, ref.Digest())
		bounds = append(bounds, int64(refBuf.Len()))
	}
	refBytes := refBuf.Bytes()
	logf("crashtest: reference run: %d events, %d WAL bytes, digest %s",
		cfg.Events, len(refBytes), ref.Digest()[:12])

	res := &crashTestResult{
		ByKind:      map[string]int{},
		Events:      cfg.Events,
		WALBytes:    len(refBytes),
		FinalDigest: ref.Digest(),
	}
	for fi, f := range chaos.Plan(cfg.Seed, cfg.Kills, int64(len(refBytes))) {
		if err := runOneKill(cfg.Grid, cfg.Dir, fi, f, script, digests, bounds, refBytes, res); err != nil {
			return res, fmt.Errorf("crashtest: kill %d (%s): %w", fi, f, err)
		}
		res.Kills++
		if (fi+1)%32 == 0 {
			logf("crashtest: %d/%d kills survived (%d torn tails)", fi+1, cfg.Kills, res.TornTails)
		}
	}
	return res, nil
}

// nosyncFile keeps chaos SyncFail faults observable without paying a
// real fsync per record — the torture simulates the crash itself, so
// actual durability of the scratch files is irrelevant.
type nosyncFile struct{ *os.File }

func (nosyncFile) Sync() error { return nil }

// writeUntilFault writes the script through a fault-injecting handle,
// flushing and syncing per record (the tightest durability discipline,
// so every fault offset is reachable), stopping at the first error the
// way a daemon whose WAL fails must.
func writeUntilFault(path string, f chaos.Fault, script []eventlog.Event) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	cf := chaos.Wrap(nosyncFile{file}, f)
	w := eventlog.NewWriter(cf)
	for i := range script {
		if _, err := w.Append(script[i]); err != nil {
			break
		}
		if err := w.Flush(); err != nil {
			break
		}
		if err := cf.Sync(); err != nil {
			break
		}
	}
	return cf.Close()
}

func runOneKill(grid Config, dir string, fi int, f chaos.Fault,
	script []eventlog.Event, digests []string, bounds []int64,
	refBytes []byte, res *crashTestResult) error {
	path := filepath.Join(dir, fmt.Sprintf("kill-%03d.log", fi))
	if err := writeUntilFault(path, f, script); err != nil {
		return fmt.Errorf("closing torn log: %w", err)
	}

	// What the fault must have left behind: the largest record boundary
	// at or below the file size is the clean prefix; anything past it is
	// a torn tail. A cut one byte short of a boundary tore only the
	// newline — the record itself is intact, so recovery keeps it
	// (repairing the terminator) and the tail counts as clean.
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	n := st.Size()
	m := 0
	for m+1 < len(bounds) && bounds[m+1] <= n+1 {
		m++
	}
	wantTorn := n > bounds[m]

	events, torn, err := eventlog.Recover(path)
	if err != nil {
		return fmt.Errorf("recovering %d-byte log: %w", n, err)
	}
	if torn != wantTorn || len(events) != m {
		return fmt.Errorf("recovered %d events (torn=%v) from a %d-byte log, want %d (torn=%v)",
			len(events), torn, n, m, wantTorn)
	}
	if torn {
		res.TornTails++
	} else {
		res.CleanTails++
	}
	res.ByKind[f.Kind.String()]++

	// Replay the clean prefix; the digest trajectory must match the
	// reference bit for bit at every event.
	g, err := NewGrid(grid)
	if err != nil {
		return err
	}
	for i, e := range events {
		if e != script[i] {
			return fmt.Errorf("recovered event %d = %+v, want %+v", i, e, script[i])
		}
		if err := g.Apply(e); err != nil {
			return fmt.Errorf("replaying event %d: %w", i, err)
		}
		if got := g.Digest(); got != digests[i] {
			return fmt.Errorf("digest diverged at replayed event %d:\ngot  %s\nwant %s", i, got, digests[i])
		}
	}

	// Every third kill additionally routes through the snapshot path:
	// atomic snapshot of the recovered state, reload via the shared
	// restart entry point — with a stray temp file from a simulated
	// crashed snapshot write in the directory, which must be ignored.
	if fi%3 == 0 {
		snap := filepath.Join(dir, fmt.Sprintf("kill-%03d.snap", fi))
		if err := g.WriteSnapshotFile(snap); err != nil {
			return fmt.Errorf("snapshotting recovered state: %w", err)
		}
		stray := filepath.Join(dir, ".snap-123.tmp")
		if err := os.WriteFile(stray, []byte(`{"version":2,"config":{"trunc`), 0o644); err != nil {
			return err
		}
		g2, info, err := RecoverGrid(grid, snap, path)
		if err != nil {
			return fmt.Errorf("snapshot+log recovery: %w", err)
		}
		if info.FromSnapshot != g.Applied() || info.Replayed != 0 {
			return fmt.Errorf("snapshot recovery replayed %d events from seq %d, want 0 from %d",
				info.Replayed, info.FromSnapshot, g.Applied())
		}
		if g2.Digest() != g.Digest() {
			return fmt.Errorf("snapshot round trip changed the digest")
		}
		g = g2
		os.Remove(stray)
		os.Remove(snap)
		res.SnapshotRuns++
	}

	// Resume: append the rest of the script to the recovered log and run
	// to the end — the daemon's life after the restart.
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := eventlog.NewWriterAt(file, uint64(m))
	for i := m; i < len(script); i++ {
		stamped, err := w.Append(script[i])
		if err != nil {
			file.Close()
			return fmt.Errorf("resuming append %d: %w", i, err)
		}
		if stamped != script[i] {
			file.Close()
			return fmt.Errorf("resumed event %d restamped to %+v, want %+v", i, stamped, script[i])
		}
		if err := g.Apply(stamped); err != nil {
			file.Close()
			return fmt.Errorf("resuming apply %d: %w", i, err)
		}
		if got := g.Digest(); got != digests[i] {
			file.Close()
			return fmt.Errorf("digest diverged at resumed event %d", i)
		}
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}

	// The resumed WAL must be the reference log, byte for byte.
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, refBytes) {
		return fmt.Errorf("final WAL differs from reference (%d vs %d bytes)", len(got), len(refBytes))
	}
	return os.Remove(path)
}

// TestCrashTestSmall runs the full torture with small budgets: every
// kill must recover to the reference digest trajectory and resume to a
// byte-identical WAL. The harness asserts everything internally; the
// test checks the runs covered what they claim to cover. The gridd-grid
// case is the CI budget (48 kills over 200 events, seed 1) on the grid
// gridd serves with its flag defaults.
func TestCrashTestSmall(t *testing.T) {
	for _, tc := range []struct {
		name          string
		grid          Config
		seed          uint64
		events, kills int
	}{
		{"test-grid", testConfig(), 11, 150, 40},
		{"gridd-grid", griddConfig(), 1, 200, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := crashTest(crashTestConfig{
				Grid:   tc.grid,
				Seed:   tc.seed,
				Events: tc.events,
				Kills:  tc.kills,
				Dir:    t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Kills != tc.kills {
				t.Fatalf("survived %d kills, want %d", res.Kills, tc.kills)
			}
			if res.TornTails == 0 {
				t.Fatal("no kill produced a torn tail — the plan is not tearing records")
			}
			if res.SnapshotRuns == 0 {
				t.Fatal("no kill recovered through the snapshot path")
			}
			for _, kind := range []string{"crash", "short-write", "enospc", "sync-fail"} {
				if res.ByKind[kind] == 0 {
					t.Fatalf("fault kind %s never drawn (by_kind %v)", kind, res.ByKind)
				}
			}
			if res.FinalDigest == "" {
				t.Fatal("empty final digest")
			}
		})
	}
}

// TestCrashTestDeterministic pins that two runs with the same seed
// produce the same reference trajectory.
func TestCrashTestDeterministic(t *testing.T) {
	run := func() *crashTestResult {
		res, err := crashTest(crashTestConfig{
			Grid: testConfig(), Seed: 5, Events: 80, Kills: 6, Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalDigest != b.FinalDigest || a.WALBytes != b.WALBytes || a.TornTails != b.TornTails {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
}
