package daemon

import (
	"gridcma/internal/eventlog"
	"gridcma/internal/rng"
)

// Script generates a deterministic, grid-acceptable event script: the
// stream the crash and failover tortures and the benchmark's gridd-repl
// workload drive their daemons with. Same (seed, machCap, n) → same events.
func Script(seed uint64, machCap, n int) []eventlog.Event {
	gen := newScriptGen(seed, machCap)
	events := make([]eventlog.Event, n)
	for i := range events {
		e := gen.next()
		if e.Type == eventlog.Admit {
			gen.used = len(gen.alive)
		}
		events[i] = e
	}
	return events
}

// scriptGen generates a deterministic plausible event stream: machines
// join up to capacity, jobs arrive and complete oldest-first, machines
// leave and fail (never stranding the last alive one), and admissions
// close every burst. It mirrors just enough grid state to only emit
// events the grid accepts; the caller must reset used to len(alive)
// after each admit, mirroring the grid's departed-slot recycling.
type scriptGen struct {
	r       *rng.Source
	nextJob uint64
	nextM   uint64
	live    []uint64 // job ids submitted and not yet completed
	alive   []uint64 // alive machine ids
	slots   int      // machine slots ever usable (MachCap)
	used    int      // machine slots consumed (departed slots stay consumed until admit)
}

func newScriptGen(seed uint64, machCap int) *scriptGen {
	return &scriptGen{r: rng.New(seed), slots: machCap}
}

func (d *scriptGen) next() eventlog.Event {
	roll := d.r.Intn(100)
	switch {
	case len(d.alive) == 0 || (roll < 8 && d.used < d.slots):
		d.nextM++
		id := d.nextM
		d.alive = append(d.alive, id)
		d.used++
		return eventlog.Event{Type: eventlog.Join, Mach: id, Mult: 1 + float64(d.r.Intn(3))}
	case roll < 12 && len(d.alive) >= 2:
		k := d.r.Intn(len(d.alive))
		id := d.alive[k]
		d.alive = append(d.alive[:k], d.alive[k+1:]...)
		typ := eventlog.Leave
		if d.r.Bool(0.5) {
			typ = eventlog.Fail
		}
		return eventlog.Event{Type: typ, Mach: id}
	case roll < 30 && len(d.live) > 0:
		id := d.live[0]
		d.live = d.live[1:]
		return eventlog.Event{Type: eventlog.Complete, Job: id}
	case roll < 45:
		return eventlog.Event{Type: eventlog.Admit}
	default:
		d.nextJob++
		id := d.nextJob
		d.live = append(d.live, id)
		return eventlog.Event{Type: eventlog.Submit, Job: id, Base: 1 + float64(d.r.Intn(8))}
	}
}
