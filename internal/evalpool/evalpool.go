// Package evalpool provides the allocation-free evaluation plumbing shared
// by every metaheuristic engine: a pool of reusable scratch evaluators and
// an in-place best-solution tracker.
//
// Offspring in the engines follow one pipeline: Propose (fill a genotype
// buffer from parents, or copy an existing individual), Improve (local
// search on the scratch State) and Commit (copy the accepted offspring
// into the population, or swap its State with the cell's as the cMA does,
// and note it with a Best tracker). A Scratch carries
// everything the pipeline needs — an incremental State, a genotype buffer
// for crossover output and an index buffer for selection — so the hot loop
// of a run touches no allocator after warm-up.
package evalpool

import (
	"sync"

	"gridcma/internal/etc"
	"gridcma/internal/schedule"
)

// Scratch is one reusable offspring workspace.
type Scratch struct {
	// St is the incremental evaluator holding the offspring being built.
	St *schedule.State
	// Buf is a genotype buffer of length nb_jobs (crossover output,
	// schedule staging).
	Buf schedule.Schedule
	// Idx is a small reusable index buffer (parent selection).
	Idx []int
}

// Pool hands out Scratches for one instance. Get and Put are safe for
// concurrent use; the Scratches themselves are single-owner while checked
// out. A reused Scratch's State holds an unspecified valid schedule, and
// a fresh one's is blank (schedule.NewBlankState): callers always
// SetSchedule, CopyFrom or SetScheduleFrom before reading.
type Pool struct {
	in *etc.Instance

	mu   sync.Mutex
	free []*Scratch
}

// New returns an empty pool bound to in.
func New(in *etc.Instance) *Pool {
	return &Pool{in: in}
}

// Instance returns the instance the pool's scratches evaluate against.
func (p *Pool) Instance() *etc.Instance { return p.in }

// Get returns a Scratch, reusing a previously returned one when possible.
func (p *Pool) Get() *Scratch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	// Fresh scratch: its State stays blank, allocating and evaluating
	// nothing until the caller's first write.
	return &Scratch{
		St:  schedule.NewBlankState(p.in),
		Buf: make(schedule.Schedule, p.in.Jobs),
		Idx: make([]int, 0, 8),
	}
}

// Put returns a Scratch to the pool for reuse. Putting nil is a no-op.
func (p *Pool) Put(s *Scratch) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Best tracks the best solution seen by a run without allocating per
// improvement: the schedule snapshot is copied in place into one buffer.
// The zero value is ready to use. Not safe for concurrent use; parallel
// engines reduce into it from one goroutine.
type Best struct {
	sched     schedule.Schedule
	threshold float64 // the engine's own fitness of the best
	fit       float64
	makespan  float64
	flowtime  float64
	ok        bool
}

// Note records st if fit, the engine's own fitness of st, improves on the
// tracked best's, reporting whether it did. The comparison stays on the
// engine's values, so which state is recorded never depends on the
// reported bits. The recorded makespan, flowtime and fitness under o are
// a fresh evaluation's of the schedule, bit for bit: the flowtime is the
// canonical fold (State.FoldedFlowtime), not the state's running
// accumulator, whose last bits drift over long commit sequences.
func (b *Best) Note(st *schedule.State, o schedule.Objective, fit float64) bool {
	if b.ok && fit >= b.threshold {
		return false
	}
	if b.sched == nil {
		b.sched = st.Schedule()
	} else {
		b.sched.CopyFrom(st.ScheduleView())
	}
	b.threshold = fit
	b.makespan, b.flowtime = st.Makespan(), st.FoldedFlowtime()
	b.fit = o.Combine(b.makespan, b.flowtime/float64(st.Instance().Machs))
	b.ok = true
	return true
}

// Threshold returns the engine's own fitness of the tracked best: the
// value a candidate must beat for Note to record it. It can differ from
// Fitness in the last bits.
func (b *Best) Threshold() float64 { return b.threshold }

// Ok reports whether any solution has been noted.
func (b *Best) Ok() bool { return b.ok }

// Fitness returns the fitness of the best solution.
func (b *Best) Fitness() float64 { return b.fit }

// Makespan returns the makespan of the best solution.
func (b *Best) Makespan() float64 { return b.makespan }

// Flowtime returns the flowtime of the best solution.
func (b *Best) Flowtime() float64 { return b.flowtime }

// Schedule returns the tracked best schedule. The returned slice is the
// tracker's internal buffer: it is only safe to retain after the run
// stops noting (engines hand it out once, in their final Result).
func (b *Best) Schedule() schedule.Schedule {
	if !b.ok {
		return nil
	}
	return b.sched
}
