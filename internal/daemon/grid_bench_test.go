package daemon

import (
	"fmt"
	"testing"

	"gridcma/internal/eventlog"
)

// BenchmarkAdmitSteady measures one steady-state admission window at the
// 2048-live x 64-machine ladder point: 512 completes drain, 512 fresh
// submissions, one admit — only the admit is timed. It includes the
// window's deferred row writes: the freed slots' blocking and the fresh
// jobs' rows. This is the warm half of the warm-vs-cold comparison GET
// /coldcheck reports.
func BenchmarkAdmitSteady(b *testing.B) {
	cfg := DefaultConfig()
	cfg.JobCap = 8192
	g, err := NewGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for m := 0; m < 64; m++ {
		if err := g.Apply(eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: float64(1 + m%3)}); err != nil {
			b.Fatal(err)
		}
	}
	submit := func(n int) {
		for i := 0; i < n; i++ {
			if err := g.Apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: float64(1 + i%8)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	admit := func() {
		if err := g.Apply(eventlog.Event{Type: eventlog.Admit}); err != nil {
			b.Fatal(err)
		}
	}
	submit(2048)
	admit()
	oldest := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 512; k++ {
			if err := g.Apply(eventlog.Event{Type: eventlog.Complete, Job: oldest}); err != nil {
				b.Fatal(err)
			}
			oldest++
		}
		submit(512)
		b.StartTimer()
		admit()
	}
}

// BenchmarkCompleteSteady measures the completion half of the same
// steady state, on a 4096-slot grid: 512 completes of the oldest jobs,
// each parking its slot at the tail of the 2048-slot parking list, are
// timed; the 512 fresh submissions and the admit that refill the grid
// (and write the freed slots' rows) are not.
func BenchmarkCompleteSteady(b *testing.B) {
	cfg := DefaultConfig()
	cfg.JobCap = 4096
	g, err := NewGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	apply := func(e eventlog.Event) {
		if err := g.Apply(e); err != nil {
			b.Fatal(err)
		}
	}
	for m := 0; m < 64; m++ {
		apply(eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: float64(1 + m%3)})
	}
	refill := func(n int) {
		for i := 0; i < n; i++ {
			apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: float64(1 + i%8)})
		}
		apply(eventlog.Event{Type: eventlog.Admit})
	}
	refill(2048)
	oldest := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 512; k++ {
			apply(eventlog.Event{Type: eventlog.Complete, Job: oldest})
			oldest++
		}
		b.StopTimer()
		refill(512)
		b.StartTimer()
	}
}

// BenchmarkAdmitCycle measures one small admission cycle on a 4096-slot
// grid with 64 machines joined: 128 submissions, the admit that places
// them and the 128 completes that drain them, all timed. The grid is
// warmed by one cycle first, so the cycle runs on reused scratch.
func BenchmarkAdmitCycle(b *testing.B) {
	g, err := NewGrid(griddConfig())
	if err != nil {
		b.Fatal(err)
	}
	apply := func(e eventlog.Event) {
		if err := g.Apply(e); err != nil {
			b.Fatal(err)
		}
	}
	for m := 0; m < 64; m++ {
		apply(eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: float64(1 + m%3)})
	}
	cycle := func() {
		first := g.NextJobID()
		for i := 0; i < 128; i++ {
			apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: float64(1 + i%8)})
		}
		apply(eventlog.Event{Type: eventlog.Admit})
		for j := first; j < g.NextJobID(); j++ {
			apply(eventlog.Event{Type: eventlog.Complete, Job: j})
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkJoin measures one machine join on a 64-machine-slot grid at
// two job capacities, with 0 or 2048 live jobs placed on 8 machines that
// stay. Only the joins are timed: once every machine slot is taken, the
// joined machines leave and a search-free admission (an admit carrying
// an empty outcome) recycles their slots. A join rewrites the placed
// jobs' rows only, so on an empty grid it reads the same at either
// capacity.
func BenchmarkJoin(b *testing.B) {
	for _, jobCap := range []int{4096, 65536} {
		for _, live := range []int{0, 2048} {
			b.Run(fmt.Sprintf("cap%d/live%d", jobCap, live), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.JobCap = jobCap
				g, err := NewGrid(cfg)
				if err != nil {
					b.Fatal(err)
				}
				apply := func(e eventlog.Event) {
					if err := g.Apply(e); err != nil {
						b.Fatal(err)
					}
				}
				const stay = 8
				for m := 0; m < stay; m++ {
					apply(eventlog.Event{Type: eventlog.Join, Mach: g.NextMachID(), Mult: float64(1 + m%3)})
				}
				for i := 0; i < live; i++ {
					apply(eventlog.Event{Type: eventlog.Submit, Job: g.NextJobID(), Base: float64(1 + i%8)})
				}
				apply(eventlog.Event{Type: eventlog.Admit})
				joined := make([]uint64, 0, cfg.MachCap-stay)
				join := func() {
					id := g.NextMachID()
					apply(eventlog.Event{Type: eventlog.Join, Mach: id, Mult: 2})
					joined = append(joined, id)
				}
				recycle := func() {
					for _, id := range joined {
						apply(eventlog.Event{Type: eventlog.Leave, Mach: id})
					}
					apply(eventlog.Event{Type: eventlog.Admit, Moves: []eventlog.Move{}})
					joined = joined[:0]
				}
				// One fill and recycle first, so the id index has grown
				// to hold every machine before the timer starts.
				for len(joined) < cap(joined) {
					join()
				}
				recycle()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(joined) == cap(joined) {
						b.StopTimer()
						recycle()
						b.StartTimer()
					}
					join()
				}
			})
		}
	}
}
