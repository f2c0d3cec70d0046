package schedule

import "math"

// The ETC-matrix gather kernel. The matrix is machine-major, so the
// kernel takes a machine's column once and indexes it by job. The
// reference swap scan's partner gather, gatherPartners, lives with it in
// swapscan_test.go.

// gatherColumn gathers u[k] = ETC[b][col] for the job b at slot k of
// jobs and returns the minimum of u (+Inf for no jobs). The minimum is
// folded in two independent chains, so one load's compare never waits on
// the previous one's. State.bestOn gathers one partner machine's jobs on
// the critical machine's column with it per critical-swap query.
func gatherColumn(etc []float64, n, col int, jobs []int32, u []float64) float64 {
	c := etc[col*n : (col+1)*n]
	u = u[:len(jobs)]
	lo0, lo1 := math.Inf(1), math.Inf(1)
	k := 0
	for ; k+1 < len(jobs); k += 2 {
		x0, x1 := c[jobs[k]], c[jobs[k+1]]
		u[k], u[k+1] = x0, x1
		lo0, lo1 = min(lo0, x0), min(lo1, x1)
	}
	if k < len(jobs) {
		u[k] = c[jobs[k]]
		lo0 = min(lo0, u[k])
	}
	return min(lo0, lo1)
}
