package schedule

import "math"

// The ETC-matrix kernels generic over the backing (float64, or the
// float32 of etc.GenSpec.Float32 that halves a frontier matrix's
// footprint): plain gathers, so the loops downstream of them are shared
// by both backings. The matrix is machine-major, so each kernel takes a
// machine's column once and indexes it by job. Entries are widened to
// float64 at the load; all arithmetic downstream of the load is
// identical for both backings. Everything else reads through At, whose
// backing branch is one perfectly predicted test per call. The reference
// swap scan's partner gather, gatherPartners, lives with it in
// swapscan_test.go.

type etcElem interface{ ~float32 | ~float64 }

// column returns machine m's column of a machine-major matrix over n
// jobs.
func column[E etcElem](etc []E, n, m int) []E {
	return etc[m*n : (m+1)*n]
}

// gatherColumn gathers u[k] = ETC[b][col] for the job b at slot k of
// jobs and returns the minimum of u (+Inf for no jobs). The minimum is
// folded in two independent chains, so one load's compare never waits on
// the previous one's. State.bestOn gathers one partner machine's jobs on
// the critical machine's column with it per critical-swap query.
func gatherColumn[E etcElem](etc []E, n, col int, jobs []int32, u []float64) float64 {
	c := column(etc, n, col)
	u = u[:len(jobs)]
	lo0, lo1 := math.Inf(1), math.Inf(1)
	k := 0
	for ; k+1 < len(jobs); k += 2 {
		x0, x1 := float64(c[jobs[k]]), float64(c[jobs[k+1]])
		u[k], u[k+1] = x0, x1
		lo0, lo1 = min(lo0, x0), min(lo1, x1)
	}
	if k < len(jobs) {
		u[k] = float64(c[jobs[k]])
		lo0 = min(lo0, u[k])
	}
	return min(lo0, lo1)
}
