package daemon

import (
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
