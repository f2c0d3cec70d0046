package daemon

import (
	"testing"

	"gridcma/internal/eventlog"
)

// BenchmarkAdmitSteady measures one steady-state admission window at the
// 2048-live x 64-machine ladder point: 512 completes drain, 512 fresh
// submissions, one admit — only the admit is timed. This is the warm
// half of the warm-vs-cold comparison GET /coldcheck reports.
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
