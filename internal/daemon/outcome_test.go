package daemon

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gridcma/internal/eventlog"
)

// primaryLog drives script through a daemon writing a WAL and returns
// the events as the log holds them: every admit with its search outcome.
func primaryLog(t *testing.T, cfg Config, script []eventlog.Event) []eventlog.Event {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	d, err := NewDaemon(ServerConfig{Grid: cfg, LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range script {
		if _, err := d.ApplyEvent(e); err != nil {
			t.Fatalf("primary event %d (%+v): %v", i, e, err)
		}
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := eventlog.Read(bytes.NewReader(data))
	if err != nil || len(logged) != len(script) {
		t.Fatalf("the WAL holds %d events (%v), want %d", len(logged), err, len(script))
	}
	return logged
}

// TestAdmitOutcomeDifferential is the differential test of the two
// admission paths. On three grid shapes that grow and four seeds, a grid
// applying the primary's WAL — each admit committing its logged LMCTS
// outcome — must match a grid applying the bare script, which searches
// at every admit, digest for digest after every event.
func TestAdmitOutcomeDifferential(t *testing.T) {
	shapes := []struct{ machCap, jobCap int }{{4, 4}, {8, 8}, {64, 16}}
	moved := 0
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := DefaultConfig()
			cfg.Seed, cfg.MachCap, cfg.JobCap = seed, sh.machCap, sh.jobCap
			script := Script(seed, cfg.MachCap, 300)
			logged := primaryLog(t, cfg, script)
			search, err := NewGrid(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := NewGrid(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range script {
				if err := search.Apply(e); err != nil {
					t.Fatalf("%dx%d seed %d: searching event %d: %v", sh.machCap, sh.jobCap, seed, i, err)
				}
				if err := replay.Apply(logged[i]); err != nil {
					t.Fatalf("%dx%d seed %d: logged event %d (%+v): %v", sh.machCap, sh.jobCap, seed, i, logged[i], err)
				}
				if logged[i].Type == eventlog.Admit {
					if logged[i].Moves == nil {
						t.Fatalf("%dx%d seed %d: admit %d logged without an outcome", sh.machCap, sh.jobCap, seed, i)
					}
					moved += len(logged[i].Moves)
				}
				if got, want := replay.Digest(), search.Digest(); got != want {
					t.Fatalf("%dx%d seed %d: after event %d (%s) the replayed outcome reads %s, the search %s",
						sh.machCap, sh.jobCap, seed, i, e.Type, got, want)
				}
			}
			if search.Counters().Grows == 0 {
				t.Fatalf("%dx%d seed %d: the grid never grew", sh.machCap, sh.jobCap, seed)
			}
		}
	}
	if moved == 0 {
		t.Error("no admission logged a move")
	}
}

// TestReplayFileWithoutOutcomes: a log written without outcomes — the
// bare Writer over Script, as logs predating the field are — replays
// through ReplayFile, searching at every admit, to the digest a grid
// applying the script reaches after every event. The daemon's log of
// the same script, outcomes and all, recovers to the same final digest.
func TestReplayFileWithoutOutcomes(t *testing.T) {
	cfg := testConfig()
	cfg.JobCap = 8
	script := Script(5, cfg.MachCap, 300)
	ref, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bare.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := eventlog.NewWriter(f)
	for i, e := range script {
		if err := ref.Apply(e); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if n, _, err := ReplayFile(g, path); err != nil || n != 1 {
			t.Fatalf("event %d: ReplayFile applied %d events: %v", i, n, err)
		}
		if got, want := g.Digest(), ref.Digest(); got != want {
			t.Fatalf("event %d (%s): replayed %s, applied %s", i, e.Type, got, want)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"moves"`)) {
		t.Fatal("the bare Writer logged a search outcome")
	}

	wal := filepath.Join(t.TempDir(), "wal.log")
	d, err := NewDaemon(ServerConfig{Grid: cfg, LogPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range script {
		if _, err := d.ApplyEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	rg, info, err := RecoverGrid(cfg, "", wal)
	if err != nil || info.Replayed != len(script) {
		t.Fatalf("recovered %d events: %v", info.Replayed, err)
	}
	if got, want := rg.Digest(), ref.Digest(); got != want {
		t.Fatalf("the daemon's log recovers to %s, the script to %s", got, want)
	}
}

// TestAdmitOutcomeRefused: an admit whose outcome moves a job that is
// not live, or onto a machine that is not alive, or names a job twice,
// is refused with the grid unchanged. A valid one may move a job the
// admission itself places — pending, or re-pooled off a departed
// machine — and leaves each job it names on the machine it names.
func TestAdmitOutcomeRefused(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(e eventlog.Event) {
		t.Helper()
		if err := g.Apply(e); err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
	}
	for m := uint64(1); m <= 4; m++ {
		apply(eventlog.Event{Type: eventlog.Join, Mach: m, Mult: float64(m)})
	}
	for j := uint64(1); j <= 8; j++ {
		apply(eventlog.Event{Type: eventlog.Submit, Job: j, Base: float64(j)})
	}
	apply(admitEvent())
	apply(eventlog.Event{Type: eventlog.Complete, Job: 1})
	apply(eventlog.Event{Type: eventlog.Leave, Mach: 3}) // dead after the next admit
	apply(admitEvent())
	apply(eventlog.Event{Type: eventlog.Submit, Job: 9, Base: 2}) // pending
	// Fail a machine holding a job, which the next admit re-pools; the
	// other two stay alive.
	var alive []uint64
	var failed, stranded uint64
	for _, m := range []uint64{1, 2, 4} {
		if jobs := g.st.JobsOn(g.machByID[m]); failed == 0 && len(jobs) > 0 {
			failed, stranded = m, g.jobs[jobs[0]].id
		} else {
			alive = append(alive, m)
		}
	}
	apply(eventlog.Event{Type: eventlog.Fail, Mach: failed}) // departed

	mv := func(job, mach uint64) eventlog.Move { return eventlog.Move{Job: job, Mach: mach} }
	before, applied, counters := g.Digest(), g.Applied(), g.Counters()
	for name, moves := range map[string][]eventlog.Move{
		"unknown job":          {mv(2, 1), mv(99, 1)},
		"completed job":        {mv(1, 1)},
		"dead machine":         {mv(2, 3)},
		"departed machine":     {mv(2, failed)},
		"never-joined machine": {mv(2, 5)},
		"job twice":            {mv(2, 1), mv(2, 2)},
		"descending jobs":      {mv(5, 1), mv(2, 2)},
		"zero machine":         {mv(2, 0)},
	} {
		if err := g.Apply(eventlog.Event{Type: eventlog.Admit, Moves: moves}); err == nil {
			t.Errorf("%s: outcome %v accepted", name, moves)
		}
		if g.Digest() != before || g.Applied() != applied || g.Counters() != counters {
			t.Fatalf("%s: the refused outcome changed the grid", name)
		}
	}

	other := uint64(2)
	if stranded == other {
		other = 3
	}
	moves := []eventlog.Move{mv(other, alive[1]), mv(stranded, alive[0]), mv(9, alive[1])}
	slices.SortFunc(moves, func(a, b eventlog.Move) int { return cmp.Compare(a.Job, b.Job) })
	apply(eventlog.Event{Type: eventlog.Admit, Moves: moves})
	for _, m := range moves {
		if info := g.Job(m.Job); info.State != "placed" || info.Mach != m.Mach {
			t.Errorf("job %d ended %+v, want placed on machine %d", m.Job, info, m.Mach)
		}
	}
	if !reflect.DeepEqual(g.LastOutcome(), moves) {
		t.Errorf("LastOutcome %v, want the applied %v", g.LastOutcome(), moves)
	}
	checkDigest(t, g, "applied outcome")
}
