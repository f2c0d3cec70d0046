// Package heuristics implements the constructive (one-pass) schedulers the
// paper and its benchmark lineage use: LJFR-SJFR — the heuristic that seeds
// the cMA population and the flowtime baseline of Table 4 — plus the
// classic immediate- and batch-mode heuristics of Braun et al. (JPDC 2001):
// OLB, MET, MCT, Min-Min, Max-Min, Duplex and Sufferage. All of them
// build a schedule.Schedule from an ETC instance without randomness.
package heuristics

import (
	"fmt"
	"math"
	"sort"

	"gridcma/internal/etc"
	"gridcma/internal/schedule"
)

// Heuristic is a deterministic constructive scheduler.
type Heuristic func(in *etc.Instance) schedule.Schedule

// ByName resolves a heuristic by its canonical lower-case name.
func ByName(name string) (Heuristic, error) {
	switch name {
	case "ljfr-sjfr", "ljfrsjfr":
		return LJFRSJFR, nil
	case "minmin", "min-min":
		return MinMin, nil
	case "maxmin", "max-min":
		return MaxMin, nil
	case "duplex":
		return Duplex, nil
	case "sufferage":
		return Sufferage, nil
	case "mct":
		return MCT, nil
	case "met":
		return MET, nil
	case "olb":
		return OLB, nil
	case "kpb":
		return KPB, nil
	default:
		return nil, fmt.Errorf("heuristics: unknown heuristic %q", name)
	}
}

// Names lists the deterministic heuristics available through ByName.
func Names() []string {
	return []string{"ljfr-sjfr", "minmin", "maxmin", "duplex", "sufferage", "mct", "met", "olb", "kpb"}
}

// completionTracker is the small running state every list heuristic needs:
// machine availability times starting from the instance ready times.
type completionTracker struct {
	in    *etc.Instance
	avail []float64
}

func newTracker(in *etc.Instance) *completionTracker {
	return &completionTracker{in: in, avail: append([]float64(nil), in.Ready...)}
}

// place assigns job j to machine m.
func (ct *completionTracker) place(s schedule.Schedule, j, m int) {
	s[j] = m
	ct.avail[m] += ct.in.At(j, m)
}

// bestMachineFor returns the machine minimising the completion time of job
// j given current availability (MCT rule).
func (ct *completionTracker) bestMachineFor(j int) int {
	best, arg := math.Inf(1), 0
	for m := 0; m < ct.in.Machs; m++ {
		if c := ct.avail[m] + ct.in.At(j, m); c < best {
			best, arg = c, m
		}
	}
	return arg
}

// fastestAvailable returns the machine with the minimum availability time.
func (ct *completionTracker) fastestAvailable() int {
	best, arg := math.Inf(1), 0
	for m, a := range ct.avail {
		if a < best {
			best, arg = a, m
		}
	}
	return arg
}

// LJFRSJFR is the Longest Job to Fastest Resource / Shortest Job to Fastest
// Resource heuristic (Abraham, Buyya & Nath) the paper uses to seed the cMA
// population. Jobs are sorted by workload; the nb_machines longest jobs go
// to the machines ordered fastest-first; each remaining placement picks the
// machine that frees up first and alternately gives it the shortest (SJFR)
// or longest (LJFR) remaining job, balancing flowtime against makespan.
func LJFRSJFR(in *etc.Instance) schedule.Schedule {
	s := make(schedule.Schedule, in.Jobs)
	ct := newTracker(in)

	// Jobs ascending by workload; machines descending by speed.
	jobs := make([]int, in.Jobs)
	for i := range jobs {
		jobs[i] = i
	}
	sort.Slice(jobs, func(a, b int) bool {
		wa, wb := in.Workload(jobs[a]), in.Workload(jobs[b])
		if wa != wb {
			return wa < wb
		}
		return jobs[a] < jobs[b]
	})
	machs := make([]int, in.Machs)
	for m := range machs {
		machs[m] = m
	}
	sort.Slice(machs, func(a, b int) bool {
		sa, sb := in.Speed(machs[a]), in.Speed(machs[b])
		if sa != sb {
			return sa > sb
		}
		return machs[a] < machs[b]
	})

	lo, hi := 0, len(jobs)-1
	// Phase 1: the nb_machines longest jobs, longest to fastest machine.
	for k := 0; k < in.Machs && lo <= hi; k++ {
		ct.place(s, jobs[hi], machs[k])
		hi--
	}
	// Phase 2: alternate SJFR / LJFR on the machine that frees up first.
	takeShortest := true
	for lo <= hi {
		m := ct.fastestAvailable()
		var j int
		if takeShortest {
			j = jobs[lo]
			lo++
		} else {
			j = jobs[hi]
			hi--
		}
		ct.place(s, j, m)
		takeShortest = !takeShortest
	}
	return s
}

// MCT (Minimum Completion Time) assigns each job, in index order, to the
// machine that completes it earliest.
func MCT(in *etc.Instance) schedule.Schedule {
	s := make(schedule.Schedule, in.Jobs)
	ct := newTracker(in)
	for j := 0; j < in.Jobs; j++ {
		ct.place(s, j, ct.bestMachineFor(j))
	}
	return s
}

// MET (Minimum Execution Time) assigns each job to the machine with the
// smallest ETC entry regardless of load. On consistent matrices it
// collapses onto the single fastest machine — the known pathology.
func MET(in *etc.Instance) schedule.Schedule {
	s := make(schedule.Schedule, in.Jobs)
	for j := 0; j < in.Jobs; j++ {
		best, arg := math.Inf(1), 0
		for m := 0; m < in.Machs; m++ {
			if e := in.At(j, m); e < best {
				best, arg = e, m
			}
		}
		s[j] = arg
	}
	return s
}

// OLB (Opportunistic Load Balancing) assigns each job to the machine that
// becomes available soonest, ignoring execution times.
func OLB(in *etc.Instance) schedule.Schedule {
	s := make(schedule.Schedule, in.Jobs)
	ct := newTracker(in)
	for j := 0; j < in.Jobs; j++ {
		ct.place(s, j, ct.fastestAvailable())
	}
	return s
}

// minMinLike runs the Min-Min family: repeatedly compute for every
// unscheduled job its minimum completion time over machines, then commit
// the job chosen by pick (min for Min-Min, max for Max-Min).
func minMinLike(in *etc.Instance, pickMax bool) schedule.Schedule {
	s := make(schedule.Schedule, in.Jobs)
	ct := newTracker(in)
	unsched := make([]int, in.Jobs)
	for i := range unsched {
		unsched[i] = i
	}
	for len(unsched) > 0 {
		bestVal := math.Inf(1)
		if pickMax {
			bestVal = math.Inf(-1)
		}
		bestIdx, bestMach := -1, 0
		for idx, j := range unsched {
			m := ct.bestMachineFor(j)
			c := ct.avail[m] + in.At(j, m)
			better := c < bestVal
			if pickMax {
				better = c > bestVal
			}
			if better {
				bestVal, bestIdx, bestMach = c, idx, m
			}
		}
		j := unsched[bestIdx]
		ct.place(s, j, bestMach)
		unsched[bestIdx] = unsched[len(unsched)-1]
		unsched = unsched[:len(unsched)-1]
	}
	return s
}

// MinMin schedules the job with the smallest minimum completion time first.
func MinMin(in *etc.Instance) schedule.Schedule { return minMinLike(in, false) }

// MaxMin schedules the job with the largest minimum completion time first.
func MaxMin(in *etc.Instance) schedule.Schedule { return minMinLike(in, true) }

// Duplex runs Min-Min and Max-Min and keeps the schedule with the better
// makespan, as in Braun et al. The comparison sums machine loads directly
// — a makespan needs no per-machine job ordering — instead of building
// two throwaway incremental evaluators.
func Duplex(in *etc.Instance) schedule.Schedule {
	a, b := MinMin(in), MaxMin(in)
	avail := make([]float64, in.Machs)
	if makespanInto(avail, in, a) <= makespanInto(avail, in, b) {
		return a
	}
	return b
}

// makespanInto computes the makespan of s using avail (length nb_machines)
// as its only working storage, so callers comparing several schedules
// reuse one buffer.
func makespanInto(avail []float64, in *etc.Instance, s schedule.Schedule) float64 {
	copy(avail, in.Ready)
	for j, m := range s {
		avail[m] += in.At(j, m)
	}
	max := 0.0
	for _, c := range avail {
		if c > max {
			max = c
		}
	}
	return max
}

// Sufferage repeatedly commits the unscheduled job that would "suffer" most
// if denied its best machine: the one with the largest difference between
// its second-best and best completion times.
func Sufferage(in *etc.Instance) schedule.Schedule {
	s := make(schedule.Schedule, in.Jobs)
	ct := newTracker(in)
	unsched := make([]int, in.Jobs)
	for i := range unsched {
		unsched[i] = i
	}
	for len(unsched) > 0 {
		bestSuff := math.Inf(-1)
		bestIdx, bestMach := -1, 0
		for idx, j := range unsched {
			first, second := math.Inf(1), math.Inf(1)
			argFirst := 0
			for m := 0; m < in.Machs; m++ {
				c := ct.avail[m] + in.At(j, m)
				if c < first {
					second = first
					first, argFirst = c, m
				} else if c < second {
					second = c
				}
			}
			suff := second - first
			if math.IsInf(second, 1) { // single machine
				suff = 0
			}
			if suff > bestSuff {
				bestSuff, bestIdx, bestMach = suff, idx, argFirst
			}
		}
		j := unsched[bestIdx]
		ct.place(s, j, bestMach)
		unsched[bestIdx] = unsched[len(unsched)-1]
		unsched = unsched[:len(unsched)-1]
	}
	return s
}

// KPB (K-Percent Best, Maheswaran et al.) assigns each job, in index
// order, to the minimum-completion-time machine among the 20 % of
// machines with the smallest execution time for that job — a middle
// ground between MET (k→0) and MCT (k→100).
func KPB(in *etc.Instance) schedule.Schedule {
	k := in.Machs / 5
	if k < 1 {
		k = 1
	}
	s := make(schedule.Schedule, in.Jobs)
	ct := newTracker(in)
	order := make([]int, in.Machs)
	for j := 0; j < in.Jobs; j++ {
		for m := range order {
			order[m] = m
		}
		sort.Slice(order, func(a, b int) bool {
			ea, eb := in.At(j, order[a]), in.At(j, order[b])
			if ea != eb {
				return ea < eb
			}
			return order[a] < order[b]
		})
		best, arg := math.Inf(1), order[0]
		for _, m := range order[:k] {
			if c := ct.avail[m] + in.At(j, m); c < best {
				best, arg = c, m
			}
		}
		ct.place(s, j, arg)
	}
	return s
}
