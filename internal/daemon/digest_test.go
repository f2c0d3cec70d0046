package daemon

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// foldDigest is the from-scratch oracle for Grid.Digest: the same records
// folded with no cache, so a missed or stale dirty mark in the
// incremental path shows up as a mismatch.
func foldDigest(g *Grid) string {
	var sum lanes
	for s := range g.jobs {
		sum.add(g.jobLeaf(int32(s), int32(g.st.Assign(s))))
	}
	for m := range g.machs {
		sum.add(g.machLeaf(m))
	}
	for i, s := range g.free {
		sum.add(listLeaf(recFree, i, s))
	}
	for i, s := range g.pending {
		sum.add(listLeaf(recPending, i, s))
	}
	return g.digestHex(sum)
}

// checkDigest fails unless the grid is structurally sound and its
// incremental digest equals the from-scratch fold.
func checkDigest(t testing.TB, g *Grid, what string) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got, want := g.Digest(), foldDigest(g); got != want {
		t.Fatalf("%s: incremental digest %s, from-scratch fold %s", what, got, want)
	}
	checkState(t, g, what)
}

// checkState fails unless the live state equals a from-scratch evaluation
// of its own schedule against the grid's instance: per-machine job lists,
// completions and the state flowtime, bit for bit. Commits resum a machine
// only from its first edited slot, so an ETC cell rewritten under a job
// assigned to that cell's machine would leave a stale prefix behind; this
// is the check that catches such a write.
func checkState(t testing.TB, g *Grid, what string) {
	t.Helper()
	ref := schedule.NewState(g.inst, g.st.Schedule())
	for m := 0; m <= g.park(); m++ {
		if !slices.Equal(g.st.JobsOn(m), ref.JobsOn(m)) {
			t.Fatalf("%s: machine %d jobs %v, from scratch %v", what, m, g.st.JobsOn(m), ref.JobsOn(m))
		}
		if got, want := g.st.Completion(m), ref.Completion(m); got != want {
			t.Fatalf("%s: machine %d completion %v, from scratch %v", what, m, got, want)
		}
	}
	if got, want := g.st.Flowtime(), ref.Flowtime(); got != want {
		t.Fatalf("%s: flowtime %v, from scratch %v", what, got, want)
	}
}

// fuzzGridConfig is small enough that a few submits force grow and a few
// joins exhaust the machine slots.
func fuzzGridConfig() Config {
	cfg := DefaultConfig()
	cfg.MachCap = 4
	cfg.JobCap = 4
	cfg.LSIters = 2
	return cfg
}

// Grid program opcodes: each event is two bytes, an opcode (mod 8) and an
// argument.
const (
	opJoin     = iota // arg&0x80: a skipped machine id (rejected); mult 1 + arg%3
	opLeave           // machine machs[arg%len], alive or not
	opFail            // likewise
	opComplete        // arg&0x80: raw job id arg&0x7f; else live[arg%len]
	opAdmit           // arg 0: plain; else with a drawn search outcome (drawOutcome)
	opSubmit          // 1 + arg&3 submits of base 1 + (arg>>4)&7
	opInvalid         // a skipped job id or a wrong sequence number (rejected)
	opSnapshot        // replace the grid by Restore(Snapshot())
	numOps
)

// runGridProgram decodes data into grid events and applies them, checking
// after every accepted event that the invariants hold and the digest
// equals the from-scratch fold, after every rejected one that the digest
// did not move, and at the end that a snapshot restores to the same
// digest.
func runGridProgram(t testing.TB, data []byte) {
	g, err := NewGrid(fuzzGridConfig())
	if err != nil {
		t.Fatal(err)
	}
	var live, machs []uint64 // submitted jobs not completed; every joined machine
	cur := g.Digest()
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%numOps, data[i+1]
		var events []eventlog.Event
		switch op {
		case opJoin:
			id := g.NextMachID()
			if arg&0x80 != 0 {
				id += 1 + uint64(arg&7)
			}
			events = append(events, eventlog.Event{Type: eventlog.Join, Mach: id, Mult: 1 + float64(arg%3)})
		case opLeave, opFail:
			typ := eventlog.Leave
			if op == opFail {
				typ = eventlog.Fail
			}
			id := uint64(arg)
			if len(machs) > 0 {
				id = machs[int(arg)%len(machs)]
			}
			events = append(events, eventlog.Event{Type: typ, Mach: id})
		case opComplete:
			id := uint64(arg & 0x7f)
			if arg&0x80 == 0 && len(live) > 0 {
				id = live[int(arg)%len(live)]
			}
			events = append(events, eventlog.Event{Type: eventlog.Complete, Job: id})
		case opAdmit:
			e := eventlog.Event{Type: eventlog.Admit}
			if arg != 0 {
				e.Moves = drawOutcome(arg, live, machs)
			}
			events = append(events, e)
		case opSubmit:
			for k := 0; k <= int(arg&3); k++ {
				events = append(events, eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID() + uint64(k), Base: 1 + float64(arg>>4&7)})
			}
		case opInvalid:
			e := eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID() + 1 + uint64(arg), Base: 1}
			if arg&1 != 0 {
				e = eventlog.Event{Type: eventlog.Admit, Seq: g.Applied() + 2 + uint64(arg)}
			}
			events = append(events, e)
		case opSnapshot:
			r, err := Restore(g.Snapshot())
			if err != nil {
				t.Fatalf("op %d: snapshot round trip: %v", i/2, err)
			}
			if d := r.Digest(); d != cur {
				t.Fatalf("op %d: restored digest %s, live %s", i/2, d, cur)
			}
			g = r
			continue
		}
		for _, e := range events {
			if err := g.Apply(e); err != nil {
				if d := g.Digest(); d != cur {
					t.Fatalf("op %d: rejected %+v (%v) moved the digest", i/2, e, err)
				}
				continue
			}
			switch e.Type {
			case eventlog.Submit:
				live = append(live, e.Job)
			case eventlog.Join:
				machs = append(machs, e.Mach)
			case eventlog.Complete:
				for k, id := range live {
					if id == e.Job {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
			}
			checkDigest(t, g, string(e.Type)+" event")
			cur = g.Digest()
		}
	}
	r, err := Restore(g.Snapshot())
	if err != nil {
		t.Fatalf("final snapshot round trip: %v", err)
	}
	if r.Digest() != g.Digest() {
		t.Fatal("final snapshot restores to a different digest")
	}
}

// drawOutcome draws an admit's search outcome of arg&3 moves, possibly
// none: job ids from live (raw ids when arg&0x80 is set), machine ids
// from machs, every joined machine, alive or not. Unless arg&0x40 is
// set the moves are sorted by job id, so most outcomes are well formed
// and fail, if at all, on the grid's own checks.
func drawOutcome(arg byte, live, machs []uint64) []eventlog.Move {
	moves := make([]eventlog.Move, arg&3)
	for k := range moves {
		job := uint64(arg>>2&0xf) + uint64(k)
		if arg&0x80 == 0 && len(live) > 0 {
			job = live[(int(arg>>2)+7*k)%len(live)]
		}
		mach := uint64(k + 1)
		if len(machs) > 0 {
			mach = machs[(int(arg>>4)+3*k)%len(machs)]
		}
		moves[k] = eventlog.Move{Job: job, Mach: mach}
	}
	if arg&0x40 == 0 {
		slices.SortFunc(moves, func(a, b eventlog.Move) int { return cmp.Compare(a.Job, b.Job) })
	}
	return moves
}

// encodeScript turns an event script into a grid program that replays it
// exactly, with a snapshot round trip every snapEvery events.
func encodeScript(events []eventlog.Event, snapEvery int) []byte {
	var out []byte
	var live, machs []uint64
	index := func(ids []uint64, id uint64) byte {
		for k, v := range ids {
			if v == id {
				return byte(k)
			}
		}
		panic("id not tracked")
	}
	for i, e := range events {
		if snapEvery > 0 && i > 0 && i%snapEvery == 0 {
			out = append(out, opSnapshot, 0)
		}
		switch e.Type {
		case eventlog.Join:
			out = append(out, opJoin, byte(e.Mult-1))
			machs = append(machs, e.Mach)
		case eventlog.Leave:
			out = append(out, opLeave, index(machs, e.Mach))
		case eventlog.Fail:
			out = append(out, opFail, index(machs, e.Mach))
		case eventlog.Complete:
			k := index(live, e.Job)
			out = append(out, opComplete, k)
			live = append(live[:k], live[k+1:]...)
		case eventlog.Admit:
			out = append(out, opAdmit, 0)
		case eventlog.Submit:
			out = append(out, opSubmit, byte(e.Base-1)<<4)
			live = append(live, e.Job)
		}
	}
	return out
}

// FuzzGridApply is the grid state-machine fuzz: arbitrary bytes decode
// into event sequences — invalid joins, leaves, fails, completes and
// sequence numbers among them, submit bursts that force grow, and
// admits carrying arbitrary search outcomes, which the grid refuses
// unchanged or commits in place of its search — and
// every accepted event must keep the invariants and the incremental
// digest equal to the from-scratch fold. The seeds replay daemon.Script,
// so tier-1 runs them as ordinary tests.
func FuzzGridApply(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(encodeScript(Script(seed, fuzzGridConfig().MachCap, 150), 50))
	}
	f.Add([]byte{opSubmit, 0xff, opJoin, 0x80, opLeave, 9, opFail, 0, opComplete, 0x85, opAdmit, 0, opInvalid, 1, opSnapshot, 0})
	f.Add([]byte{opJoin, 0, opJoin, 1, opSubmit, 0x13, opAdmit, 0, opAdmit, 0x01, opAdmit, 0x16, opAdmit, 0x42,
		opSubmit, 0x22, opFail, 1, opAdmit, 0x11, opAdmit, 0x23, opAdmit, 0x83, opAdmit, 0xbd, opAdmit, 0x04,
		opSnapshot, 0, opAdmit, 0x35})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // a longer program grows the grid past what a fold per event can check quickly
		}
		runGridProgram(t, data)
	})
}

// TestDigestMatchesFold is the differential test of the incremental
// digest against the from-scratch fold: the crash and failover tortures'
// scripts on the default 1024-slot × 64-machine grid (checked after every
// event, and every fifth event so marks accumulate between calls), a
// small grid that grows, and random programs that cross grow and
// snapshot restores.
func TestDigestMatchesFold(t *testing.T) {
	run := func(cfg Config, script []eventlog.Event, every int) {
		t.Helper()
		g, err := NewGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range script {
			if err := g.Apply(e); err != nil {
				t.Fatalf("event %d (%+v): %v", i, e, err)
			}
			if i%every == 0 || i == len(script)-1 {
				checkDigest(t, g, string(e.Type)+" event")
			}
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		run(DefaultConfig(), Script(seed, 64, 400), 1)
	}
	run(DefaultConfig(), Script(4, 64, 400), 5)
	small := testConfig()
	small.JobCap = 8
	for _, seed := range []uint64{5, 6} {
		run(small, Script(seed, small.MachCap, 600), 1)
		run(small, Script(seed, small.MachCap, 600), 7)
	}

	r := rng.New(12)
	for p := 0; p < 20; p++ {
		data := make([]byte, 400)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		runGridProgram(t, data)
	}
}

// TestDigestCoversEveryField perturbs each field the digest must cover,
// one at a time on a restored copy, and requires the digest to change.
func TestDigestCoversEveryField(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 19, 250)
	for k := 0; k < 3; k++ {
		if err := g.Apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: 2}); err != nil {
			t.Fatal(err)
		}
	}
	base := g.Digest()
	p := g.park()

	// Witnesses: a placed slot, a pending slot, an alive machine and an
	// empty real machine column.
	placed, pending, alive, empty := -1, int(g.pending[0]), -1, -1
	for s := range g.jobs {
		if g.jobs[s].state == slotPlaced {
			placed = s
			break
		}
	}
	for m := 0; m < p; m++ {
		if g.machs[m].alive && alive < 0 {
			alive = m
		}
		if len(g.st.JobsOn(m)) == 0 && empty < 0 {
			empty = m
		}
	}
	if placed < 0 || alive < 0 || empty < 0 || len(g.free) < 2 || len(g.pending) < 2 {
		t.Fatalf("driven grid lacks a witness: placed %d alive %d empty %d free %d pending %d",
			placed, alive, empty, len(g.free), len(g.pending))
	}
	other := (g.st.Assign(placed) + 1) % p

	// rebuild re-evaluates the state after a change to its instance.
	rebuild := func(c *Grid) { c.st.SetSchedule(c.st.Schedule()) }
	for _, c := range []struct {
		field   string
		perturb func(c *Grid)
	}{
		{"next job id", func(c *Grid) { c.nextJobID++ }},
		{"next machine id", func(c *Grid) { c.nextMachID++ }},
		{"applied", func(c *Grid) { c.applied++ }},
		{"admits", func(c *Grid) { c.counters.Admits++ }},
		{"park sequence", func(c *Grid) { c.parkSeq++ }},
		{"slot id", func(c *Grid) { c.jobs[placed].id++ }},
		{"slot state", func(c *Grid) { c.jobs[placed].state = slotPending }},
		{"slot park key", func(c *Grid) { c.parkKeys[pending]++ }},
		{"slot base", func(c *Grid) { c.jobs[pending].base++ }},
		{"slot assignment", func(c *Grid) { c.st.ScheduleView()[placed] = other }},
		{"machine id", func(c *Grid) { c.machs[alive].id++ }},
		{"machine mult", func(c *Grid) { c.machs[alive].mult++ }},
		{"machine alive", func(c *Grid) { c.machs[alive].alive = false }},
		{"machine departed", func(c *Grid) { c.machs[alive].departed = true }},
		{"real completion", func(c *Grid) { c.inst.Ready[empty] = 1; rebuild(c) }},
		// Free slots always sit on the parking column, so its completion
		// cannot move without the flowtime.
		{"parking completion", func(c *Grid) { c.inst.Ready[p] = 1; rebuild(c) }},
		{"flowtime", func(c *Grid) { driftFlowtime(t, c) }},
		{"pending order", func(c *Grid) { c.pending[0], c.pending[1] = c.pending[1], c.pending[0] }},
		{"free order", func(c *Grid) { c.free[0], c.free[1] = c.free[1], c.free[0] }},
	} {
		cp, err := Restore(g.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		c.perturb(cp)
		if foldDigest(cp) == base {
			t.Errorf("perturbing the %s left the digest unchanged", c.field)
		}
	}

	// The real-completion case moves nothing but that completion.
	cp, _ := Restore(g.Snapshot())
	cp.inst.Ready[empty] = 1
	rebuild(cp)
	if math.Float64bits(cp.st.Flowtime()) != math.Float64bits(g.st.Flowtime()) {
		t.Error("the empty machine's ready time moved the flowtime")
	}
}

// driftFlowtime moves a job away and back until the state's running
// flowtime drifts by rounding while every assignment and completion
// returns to its old bits: a change to the flowtime alone.
func driftFlowtime(t *testing.T, c *Grid) {
	t.Helper()
	before := math.Float64bits(c.st.Flowtime())
	for s := range c.jobs {
		from := c.st.Assign(s)
		if from == c.park() {
			continue
		}
		for to := 0; to < c.park(); to++ {
			if to == from || !c.machs[to].alive {
				continue
			}
			c.st.Move(s, to)
			c.st.Move(s, from)
			if math.Float64bits(c.st.Flowtime()) != before {
				return
			}
		}
	}
	t.Fatal("no move pair drifted the flowtime")
}

// TestRestoreRejectsVersion1: a version-1 snapshot embeds the older
// sequential digest, which no grid reproduces any more; Restore refuses it
// with the version error rather than a digest mismatch.
func TestRestoreRejectsVersion1(t *testing.T) {
	g, err := NewGrid(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g, 3, 60)
	s := g.Snapshot()
	s.Version = 1
	_, err = Restore(s)
	if err == nil || !strings.Contains(err.Error(), "snapshot version 1, want 2") {
		t.Fatalf("restore of a version-1 snapshot: %v, want the version error", err)
	}
}

// BenchmarkGridDigestPerEvent replays Script(1, 64, 2000) on the default
// 1024-slot × 64-machine grid, the gridd-repl workload's script, and
// times Digest after every event, as the tortures and the gridd-repl
// workload's bare replay call it.
// ns/event is the mean time of Digest per event. Apply is not timed, and
// with it the old-leaf subtraction touchJob makes for each slot a
// transition changes (one SHA-256 per slot).
func BenchmarkGridDigestPerEvent(b *testing.B) {
	cfg := DefaultConfig()
	script := Script(1, cfg.MachCap, 2000)
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		g, err := NewGrid(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range script {
			if err := g.Apply(e); err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			g.Digest()
			busy += time.Since(t0)
		}
	}
	b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N*len(script)), "ns/event")
}
