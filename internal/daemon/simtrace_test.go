package daemon

import (
	"bytes"
	"reflect"
	"testing"

	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/gridsim"
	"gridcma/internal/heuristics"
	"gridcma/internal/schedule"
)

// simTrace runs one churny simulation with the Record hook installed and
// returns the exported gridd event stream.
func simTrace(t *testing.T, seed uint64) []eventlog.Event {
	t.Helper()
	cfg := gridsim.DefaultConfig()
	cfg.Horizon = 300
	cfg.InitialMachines = 8
	cfg.ArrivalRate = 0.8
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.01
	cfg.Seed = seed
	var events []eventlog.Event
	cfg.Record = func(e eventlog.Event) { events = append(events, e) }
	policy := gridsim.PolicyFunc{
		PolicyName: "mct",
		Fn: func(in *etc.Instance, _ uint64) schedule.Schedule {
			return heuristics.MCT(in)
		},
	}
	m, err := gridsim.Simulate(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsArrived == 0 || m.JobsCompleted == 0 || m.Activations == 0 {
		t.Fatalf("degenerate simulation: %+v", m)
	}
	if len(events) == 0 {
		t.Fatal("Record hook never fired")
	}
	return events
}

// TestSimTraceReplaysThroughGrid is the gridsim→gridd round trip: the
// simulator's exported event stream must be a valid sequential gridd
// stream — every event accepted by a daemon Grid — and identical whether
// applied directly or serialised through the event-log writer and reader
// first.
func TestSimTraceReplaysThroughGrid(t *testing.T) {
	events := simTrace(t, 11)

	gcfg := DefaultConfig()
	gcfg.MachCap = 32 // initial fleet + churn joins
	gcfg.JobCap = 64
	gcfg.LSIters = 2
	direct, err := NewGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i, e := range events {
		if err := direct.Apply(e); err != nil {
			t.Fatalf("event %d (%+v) rejected: %v", i, e, err)
		}
		counts[string(e.Type)]++
	}
	if counts["submit"] == 0 || counts["complete"] == 0 || counts["admit"] == 0 || counts["fail"] == 0 {
		t.Fatalf("trace lacks event diversity: %v", counts)
	}

	// Serialise through the wire format and replay into a second grid.
	var buf bytes.Buffer
	w := eventlog.NewWriter(&buf)
	for _, e := range events {
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := eventlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("wire round trip lost events: %d != %d", len(decoded), len(events))
	}
	wire, err := NewGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range decoded {
		if err := wire.Apply(e); err != nil {
			t.Fatalf("decoded event %d rejected: %v", i, err)
		}
	}
	if dd, wd := direct.Digest(), wire.Digest(); dd != wd {
		t.Fatalf("direct and wire-replayed grids diverge:\n%s\n%s", dd, wd)
	}
}

// TestSimTraceDeterministic pins the Record stream itself: two identical
// simulations emit byte-identical event streams.
func TestSimTraceDeterministic(t *testing.T) {
	a := simTrace(t, 7)
	b := simTrace(t, 7)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
