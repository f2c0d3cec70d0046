package daemon

import (
	"math"
	"testing"

	"gridcma/internal/eventlog"
	"gridcma/internal/schedule"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MachCap = 8
	cfg.JobCap = 32
	cfg.LSIters = 3
	return cfg
}

// griddConfig is the grid cmd/gridd serves when no flag is set:
// DefaultConfig with 4096 initial job slots.
func griddConfig() Config {
	cfg := DefaultConfig()
	cfg.JobCap = 4096
	return cfg
}

// driver is the tests' name for the deterministic event generator
// behind Script (script.go).
type driver = scriptGen

func newDriver(seed uint64, machCap int) *driver {
	return newScriptGen(seed, machCap)
}

// admitEvent returns an admission window close.
func admitEvent() eventlog.Event { return eventlog.Event{Type: eventlog.Admit} }

// drive applies n generated events (plus a trailing admit) and returns
// the full stream for replay.
func drive(t *testing.T, g *Grid, seed uint64, n int) []eventlog.Event {
	t.Helper()
	d := newDriver(seed, len(g.machs))
	var out []eventlog.Event
	for i := 0; i < n; i++ {
		e := d.next()
		if err := g.Apply(e); err != nil {
			t.Fatalf("event %d (%+v): %v", i, e, err)
		}
		out = append(out, e)
		// Mirror the admit's departed-slot recycling: slots free up once
		// the admission window has drained them.
		if e.Type == eventlog.Admit {
			d.used = len(d.alive)
		}
	}
	e := admitEvent()
	if err := g.Apply(e); err != nil {
		t.Fatalf("trailing admit: %v", err)
	}
	return append(out, e)
}

func TestGridLifecycle(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(e eventlog.Event) {
		t.Helper()
		if err := g.Apply(e); err != nil {
			t.Fatalf("apply %+v: %v", e, err)
		}
	}
	apply(eventlog.Event{Type: eventlog.Join, Mach: 1, Mult: 1})
	apply(eventlog.Event{Type: eventlog.Join, Mach: 2, Mult: 2})
	for j := uint64(1); j <= 6; j++ {
		apply(eventlog.Event{Type: eventlog.Submit, Job: j, Base: float64(j)})
	}
	if _, pending, _ := g.Live(); pending != 6 {
		t.Fatalf("pending %d before admit, want 6", pending)
	}
	apply(admitEvent())
	placed, pending, machines := g.Live()
	if placed != 6 || pending != 0 || machines != 2 {
		t.Fatalf("after admit: placed %d pending %d machines %d", placed, pending, machines)
	}
	if got := len(g.LastPlacements()); got != 6 {
		t.Fatalf("LastPlacements %d, want 6", got)
	}
	for _, p := range g.LastPlacements() {
		if info := g.Job(p.Job); info.State != "placed" || info.Mach != p.Mach {
			t.Fatalf("job %d: info %+v, placement %+v", p.Job, info, p)
		}
	}
	mk, fl := g.Quality()
	if mk <= 0 || fl <= 0 || mk >= blockETC/2 || fl >= blockETC/2 {
		t.Fatalf("quality makespan=%v flowtime=%v out of range", mk, fl)
	}

	apply(eventlog.Event{Type: eventlog.Complete, Job: 3})
	if info := g.Job(3); info.State != "done" {
		t.Fatalf("job 3 state %q after complete, want done", info.State)
	}
	if placed, _, _ := g.Live(); placed != 5 {
		t.Fatalf("placed %d after complete, want 5", placed)
	}

	// A failing machine re-pools its jobs at the next admit.
	apply(eventlog.Event{Type: eventlog.Fail, Mach: 2})
	apply(admitEvent())
	placed, pending, machines = g.Live()
	if placed != 5 || pending != 0 || machines != 1 {
		t.Fatalf("after fail+admit: placed %d pending %d machines %d", placed, pending, machines)
	}
	for j := uint64(1); j <= 6; j++ {
		if j == 3 {
			continue
		}
		if info := g.Job(j); info.State != "placed" || info.Mach != 1 {
			t.Fatalf("job %d: %+v, want placed on machine 1", j, info)
		}
	}
	if g.Counters().Restarts == 0 {
		t.Fatal("fail with jobs did not count restarts")
	}
}

func TestGridRejectsInvalidEvents(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []eventlog.Event{
		{Type: eventlog.Submit, Job: 2, Base: 1}, // id gap
		{Type: eventlog.Join, Mach: 5, Mult: 1},  // id gap
		{Type: eventlog.Leave, Mach: 1},          // not alive
		{Type: eventlog.Complete, Job: 1},        // unknown job
		{Type: eventlog.Admit, Seq: 7},           // wrong sequence
	}
	for _, e := range bad {
		if err := g.Apply(e); err == nil {
			t.Errorf("Apply(%+v) accepted an invalid event", e)
		}
	}
	if g.Applied() != 0 {
		t.Fatalf("rejected events advanced the sequence to %d", g.Applied())
	}
	// Machine capacity exhaustion is an error, not a panic.
	for m := uint64(1); m <= uint64(g.cfg.MachCap); m++ {
		if err := g.Apply(eventlog.Event{Type: eventlog.Join, Mach: m, Mult: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Apply(eventlog.Event{Type: eventlog.Join, Mach: uint64(g.cfg.MachCap) + 1, Mult: 1}); err == nil {
		t.Fatal("join beyond machine capacity accepted")
	}
}

// TestGridDigestTrajectoryDeterministic is the replay core: two grids fed
// the same event stream report identical digests after every event.
func TestGridDigestTrajectoryDeterministic(t *testing.T) {
	cfg := testConfig()
	a, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := drive(t, a, 101, 400)

	b, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trajB []string
	for _, e := range events {
		if err := b.Apply(e); err != nil {
			t.Fatalf("replay b %+v: %v", e, err)
		}
		trajB = append(trajB, b.Digest())
	}
	for i, e := range events {
		if err := c.Apply(e); err != nil {
			t.Fatalf("replay c %+v: %v", e, err)
		}
		if d := c.Digest(); d != trajB[i] {
			t.Fatalf("digest diverged at event %d (%+v)", i, e)
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatal("live grid digest differs from its own replay")
	}
}

// TestGridQualityMatchesCleanExtraction pins the parking-column design:
// the live capacity state's quality over real machines is bit-identical
// to a clean instance holding only the live jobs and alive machines —
// parked slots, dead columns and the parking machine leave no residue.
func TestGridQualityMatchesCleanExtraction(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 7, 300)
	in, sched := g.LiveInstance()
	if in == nil {
		t.Skip("driver left no live jobs")
	}
	clean := schedule.NewState(in, sched)
	mk, fl := g.Quality()
	if math.Float64bits(mk) != math.Float64bits(clean.Makespan()) {
		t.Fatalf("makespan differs: live %v, clean %v", mk, clean.Makespan())
	}
	if math.Float64bits(fl) != math.Float64bits(clean.Flowtime()) {
		t.Fatalf("flowtime differs: live %v, clean %v", fl, clean.Flowtime())
	}
}

// TestGridSlotReuseAndGrowth floods the grid past its job capacity,
// completes everything, floods again — exercising doubling growth and
// slot recycling — and checks the replay digest still matches.
func TestGridSlotReuseAndGrowth(t *testing.T) {
	cfg := testConfig()
	cfg.JobCap = 8
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []eventlog.Event
	apply := func(e eventlog.Event) {
		t.Helper()
		if err := g.Apply(e); err != nil {
			t.Fatalf("apply %+v: %v", e, err)
		}
		events = append(events, e)
	}
	apply(eventlog.Event{Type: eventlog.Join, Mach: 1, Mult: 1})
	apply(eventlog.Event{Type: eventlog.Join, Mach: 2, Mult: 1})
	next := uint64(0)
	for round := 0; round < 3; round++ {
		first := next + 1
		for k := 0; k < 20; k++ {
			next++
			apply(eventlog.Event{Type: eventlog.Submit, Job: next, Base: 2})
		}
		apply(admitEvent())
		for j := first; j <= next; j++ {
			apply(eventlog.Event{Type: eventlog.Complete, Job: j})
		}
	}
	if g.Counters().Grows == 0 {
		t.Fatal("20 live jobs never grew an 8-slot grid")
	}
	if placed, pending, _ := g.Live(); placed != 0 || pending != 0 {
		t.Fatalf("placed %d pending %d after completing everything", placed, pending)
	}
	r, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := r.Apply(e); err != nil {
			t.Fatalf("replay %+v: %v", e, err)
		}
	}
	if g.Digest() != r.Digest() {
		t.Fatal("growth/reuse trajectory does not replay to the same digest")
	}
}

// TestAdmissionSettlesRows: submissions and completions leave their rows
// to the next admission, which must write them before it places or
// searches. After every admission each free slot is blockETC on every
// real machine and each occupied slot holds its job's value on every
// alive one — the rows an eager per-event write would have left.
func TestAdmissionSettlesRows(t *testing.T) {
	for _, jobCap := range []int{4, 32} {
		cfg := testConfig()
		cfg.JobCap = jobCap
		g, err := NewGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := newDriver(7, cfg.MachCap)
		admits := 0
		for i := 0; i < 1500; i++ {
			e := d.next()
			if err := g.Apply(e); err != nil {
				t.Fatalf("event %d (%+v): %v", i, e, err)
			}
			if e.Type != eventlog.Admit {
				continue
			}
			d.used = len(d.alive)
			admits++
			for s := range g.jobs {
				js := &g.jobs[s]
				for m := range g.machs {
					got := g.inst.At(s, m)
					switch {
					case js.state == slotFree:
						if got != blockETC {
							t.Fatalf("jobCap %d admission %d: free slot %d reads %v on machine %d, want blockETC", jobCap, admits, s, got, m)
						}
					case g.machs[m].alive:
						if want := g.etcOf(js.id, js.base, &g.machs[m]); got != want {
							t.Fatalf("jobCap %d admission %d: job %d reads %v on machine %d, want %v", jobCap, admits, js.id, got, m, want)
						}
					}
				}
			}
		}
		if admits < 50 || g.Counters().Completed == 0 || (jobCap == 4 && g.Counters().Grows == 0) {
			t.Fatalf("jobCap %d: stream too thin: %d admissions, counters %+v", jobCap, admits, g.Counters())
		}
	}
}
