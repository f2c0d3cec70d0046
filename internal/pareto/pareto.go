// Package pareto implements the multi-objective extension the paper's
// conclusions call for: "to tackle the problem with a multi-objective
// algorithm in order to find a set of non-dominated solutions".
//
// It provides bi-objective (makespan, flowtime) Pareto dominance, a
// bounded non-dominated archive with crowding-distance pruning, and one
// solver: a λ-sweep over the scalarised cMA, which runs the paper's
// algorithm unchanged across a grid of weights.
package pareto

import (
	"fmt"
	"math"
	"sort"

	"gridcma/internal/schedule"
)

// Vec is one point in objective space. Both objectives are minimised.
type Vec struct {
	Makespan float64
	Flowtime float64
}

// Dominates reports whether a is at least as good as b in both objectives
// and strictly better in at least one.
func (a Vec) Dominates(b Vec) bool {
	if a.Makespan > b.Makespan || a.Flowtime > b.Flowtime {
		return false
	}
	return a.Makespan < b.Makespan || a.Flowtime < b.Flowtime
}

// Equal reports exact objective equality.
func (a Vec) Equal(b Vec) bool {
	return a.Makespan == b.Makespan && a.Flowtime == b.Flowtime
}

// Solution pairs a schedule with its objective vector.
type Solution struct {
	Schedule schedule.Schedule
	Obj      Vec
}

// Front is a bounded archive of mutually non-dominated solutions. The
// zero value is unusable; construct with NewFront.
type Front struct {
	cap  int
	sols []Solution
}

// NewFront returns an archive holding at most capacity solutions
// (capacity <= 0 panics). When full, the most crowded interior solution
// is evicted, preserving the extremes.
func NewFront(capacity int) *Front {
	if capacity <= 0 {
		panic(fmt.Sprintf("pareto: front capacity %d", capacity))
	}
	return &Front{cap: capacity}
}

// Len returns the number of archived solutions.
func (f *Front) Len() int { return len(f.sols) }

// Solutions returns the archive sorted by ascending makespan. The
// schedules are the archive's own copies; callers must not mutate them.
func (f *Front) Solutions() []Solution {
	out := append([]Solution(nil), f.sols...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj.Makespan != out[j].Obj.Makespan {
			return out[i].Obj.Makespan < out[j].Obj.Makespan
		}
		return out[i].Obj.Flowtime < out[j].Obj.Flowtime
	})
	return out
}

// Add offers a solution to the archive. It returns true if the solution
// was admitted (i.e. it is not dominated by, nor duplicates, any archived
// solution). The offered schedule is cloned on admission.
func (f *Front) Add(s schedule.Schedule, obj Vec) bool {
	keep := f.sols[:0]
	for _, cur := range f.sols {
		if cur.Obj.Dominates(obj) || cur.Obj.Equal(obj) {
			return false // offered solution adds nothing
		}
		if !obj.Dominates(cur.Obj) {
			keep = append(keep, cur)
		}
	}
	f.sols = keep
	f.sols = append(f.sols, Solution{Schedule: s.Clone(), Obj: obj})
	if len(f.sols) > f.cap {
		f.evictMostCrowded()
	}
	return true
}

// AddState offers an evaluated state.
func (f *Front) AddState(st *schedule.State) bool {
	return f.Add(st.ScheduleView(), Vec{Makespan: st.Makespan(), Flowtime: st.Flowtime()})
}

// evictMostCrowded removes the interior solution with the smallest
// crowding distance (extreme points have infinite distance and survive).
func (f *Front) evictMostCrowded() {
	d := f.crowding()
	worst, worstD := -1, math.Inf(1)
	for i, dist := range d {
		if dist < worstD {
			worst, worstD = i, dist
		}
	}
	if worst < 0 {
		worst = len(f.sols) - 1
	}
	f.sols[worst] = f.sols[len(f.sols)-1]
	f.sols = f.sols[:len(f.sols)-1]
}

// crowding computes the NSGA-II crowding distance of each archived
// solution (indexed as in f.sols).
func (f *Front) crowding() []float64 {
	n := len(f.sols)
	d := make([]float64, n)
	if n <= 2 {
		for i := range d {
			d[i] = math.Inf(1)
		}
		return d
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	addDim := func(val func(Vec) float64) {
		sort.Slice(idx, func(a, b int) bool { return val(f.sols[idx[a]].Obj) < val(f.sols[idx[b]].Obj) })
		lo, hi := val(f.sols[idx[0]].Obj), val(f.sols[idx[n-1]].Obj)
		d[idx[0]], d[idx[n-1]] = math.Inf(1), math.Inf(1)
		span := hi - lo
		if span == 0 {
			return
		}
		for k := 1; k < n-1; k++ {
			d[idx[k]] += (val(f.sols[idx[k+1]].Obj) - val(f.sols[idx[k-1]].Obj)) / span
		}
	}
	addDim(func(v Vec) float64 { return v.Makespan })
	addDim(func(v Vec) float64 { return v.Flowtime })
	return d
}

// Hypervolume returns the dominated area relative to a reference point
// (both coordinates must dominate every archived solution, i.e. be worse).
// It is the standard bi-objective front quality indicator; larger is
// better.
func (f *Front) Hypervolume(ref Vec) float64 {
	sols := f.Solutions()
	hv := 0.0
	prevMS := ref.Makespan
	// Iterate right-to-left in makespan: each solution contributes a
	// rectangle from its flowtime down to the reference.
	for i := len(sols) - 1; i >= 0; i-- {
		s := sols[i].Obj
		if s.Makespan > ref.Makespan || s.Flowtime > ref.Flowtime {
			continue // outside the reference box
		}
		hv += (prevMS - s.Makespan) * (ref.Flowtime - s.Flowtime)
		prevMS = s.Makespan
	}
	return hv
}
