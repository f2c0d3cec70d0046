package daemon

import (
	"fmt"
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
	if mk <= 0 || fl <= 0 || mk >= 1e3 || fl >= 1e3 {
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

// TestAdmissionSettlesRows: submissions leave their rows to the next
// admission, which must write them before it places or searches, and a
// join writes its column for the jobs on real machines only, a parked
// job's row waiting for the admission that places it. After every join
// each job on a real machine, alive or departed, reads its value in the
// joined column (LMCTS reads the alive machines' jobs, LiveInstance
// every placed job, stranded ones too), and after every admission each
// occupied slot holds its job's value on every alive machine: the rows
// an eager per-event write would have left. The streams are Script's at
// two job capacities, Script's on the three shapes of the grid goldens,
// and a scripted one that joins while jobs are pending and while jobs
// are stranded on departed machines, with and without a machine alive.
func TestAdmissionSettlesRows(t *testing.T) {
	type stream struct {
		name   string
		cfg    Config
		events []eventlog.Event
	}
	var streams []stream
	for _, jobCap := range []int{4, 32} {
		cfg := testConfig()
		cfg.JobCap = jobCap
		streams = append(streams, stream{fmt.Sprintf("jobCap%d", jobCap), cfg, Script(7, cfg.MachCap, 1500)})
	}
	for _, shape := range []struct{ machCap, jobCap int }{{4, 4}, {8, 8}, {64, 16}} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := DefaultConfig()
			cfg.Seed, cfg.MachCap, cfg.JobCap = seed, shape.machCap, shape.jobCap
			streams = append(streams, stream{fmt.Sprintf("%dx%d/seed%d", shape.machCap, shape.jobCap, seed), cfg, Script(seed, cfg.MachCap, 600)})
		}
	}
	join := func(id uint64, mult float64) eventlog.Event {
		return eventlog.Event{Type: eventlog.Join, Mach: id, Mult: mult}
	}
	leave := func(id uint64) eventlog.Event { return eventlog.Event{Type: eventlog.Leave, Mach: id} }
	var hand []eventlog.Event
	var nextJob uint64
	submit := func(n int) {
		for i := 0; i < n; i++ {
			nextJob++
			hand = append(hand, eventlog.Event{Type: eventlog.Submit, Job: nextJob, Base: float64(1 + i%4)})
		}
	}
	hand = append(hand, join(1, 1), join(2, 2))
	submit(6)
	hand = append(hand, admitEvent())
	submit(3)
	hand = append(hand, join(3, 3), admitEvent()) // joins with jobs pending
	submit(2)
	hand = append(hand, leave(1), join(4, 1)) // with jobs stranded on machine 1 and two pending
	hand = append(hand, leave(2), leave(3), leave(4), admitEvent())
	submit(2)
	hand = append(hand, join(5, 2), admitEvent()) // with stranded jobs pending and no machine alive before
	streams = append(streams, stream{"scripted", testConfig(), hand})

	for _, sm := range streams {
		t.Run(sm.name, func(t *testing.T) {
			g, err := NewGrid(sm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := g.park()
			var admits, pendingJoins, strandedJoins int
			for i, e := range sm.events {
				if e.Type == eventlog.Join {
					for _, s := range g.pending {
						if g.st.Assign(int(s)) == p {
							pendingJoins++
							break
						}
					}
					for m := range g.machs {
						if g.machs[m].departed && len(g.st.JobsOn(m)) > 0 {
							strandedJoins++
							break
						}
					}
				}
				if err := g.Apply(e); err != nil {
					t.Fatalf("event %d (%+v): %v", i, e, err)
				}
				switch e.Type {
				case eventlog.Join:
					slot := g.machByID[e.Mach]
					for m := 0; m < p; m++ {
						for _, s := range g.st.JobsOn(m) {
							js := &g.jobs[s]
							if got, want := g.inst.At(int(s), slot), g.etcOf(js.id, js.base, &g.machs[slot]); got != want {
								t.Fatalf("event %d: job %d on machine slot %d reads %v on joined machine %d, want %v", i, js.id, m, got, e.Mach, want)
							}
						}
					}
				case eventlog.Admit:
					admits++
					for s := range g.jobs {
						js := &g.jobs[s]
						if js.state == slotFree {
							continue
						}
						for m := range g.machs {
							if !g.machs[m].alive {
								continue
							}
							if got, want := g.inst.At(s, m), g.etcOf(js.id, js.base, &g.machs[m]); got != want {
								t.Fatalf("admission %d: job %d reads %v on machine %d, want %v", admits, js.id, got, g.machs[m].id, want)
							}
						}
					}
				}
			}
			if sm.name == "scripted" {
				if pendingJoins == 0 || strandedJoins == 0 {
					t.Fatalf("joined %d times with jobs pending and %d with jobs stranded, want both", pendingJoins, strandedJoins)
				}
			} else if admits < 50 || g.Counters().Completed == 0 || (sm.cfg.JobCap < 32 && g.Counters().Grows == 0) {
				t.Fatalf("stream too thin: %d admissions, counters %+v", admits, g.Counters())
			}
		})
	}
}
