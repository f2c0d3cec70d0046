package main

import (
	"math"

	"gridcma/internal/etc"
)

// lowerBound is the closed-form makespan lower bound of an ETC instance.
// No schedule finishes before the job whose best machine (counting that
// machine's ready time) is slowest; none finishes before the machines'
// ready times plus every job's fastest processing time, spread evenly
// over all machines; and none before the last machine becomes ready.
//
//	LB = max( max_j min_m (r_m + ETC[j][m]),  (Σ_m r_m + Σ_j min_m ETC[j][m]) / M,  max_m r_m )
func lowerBound(in *etc.Instance) float64 {
	var slowestJob, work float64
	for j := 0; j < in.Jobs; j++ {
		fastest, earliest := math.Inf(1), math.Inf(1)
		for m := 0; m < in.Machs; m++ {
			e := in.At(j, m)
			fastest = min(fastest, e)
			earliest = min(earliest, in.Ready[m]+e)
		}
		work += fastest
		slowestJob = max(slowestJob, earliest)
	}
	lastReady := 0.0
	for _, r := range in.Ready {
		work += r
		lastReady = max(lastReady, r)
	}
	return max(slowestJob, work/float64(in.Machs), lastReady)
}

// checkBound checks lb <= mk and returns mk ÷ lb. A makespan sums its
// machine's ETCs in another order than the bound does, so a bound that is
// tight may exceed it in the last bits; that much is allowed.
func checkBound(rc *runCtx, what string, lb, mk float64) float64 {
	rc.check("lower bound <= makespan", lb <= mk*(1+1e-12), "%s: lower bound %v above makespan %v", what, lb, mk)
	return mk / lb
}

// geomean is the geometric mean of positive values. quality_gap is the
// geometric mean of makespan ÷ LB over a run's instances, less one: the
// ratios of different instances span a wide range, and their arithmetic
// mean would be set by the loosest bound alone.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
