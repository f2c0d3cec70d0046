package schedule

import "math"

// The ETC-matrix kernels generic over the backing (float64, or the
// float32 of etc.GenSpec.Float32 that halves a frontier matrix's
// footprint): plain gathers, so the loops downstream of them are shared
// by both backings. Entries are widened to float64 at the load; all
// arithmetic downstream of the load is identical for both backings.
// Everything else reads through At, whose backing branch is one
// perfectly predicted test per call.

type etcElem interface{ ~float32 | ~float64 }

// gatherPartners captures the partner side of critical-machine swaps
// for partner machine m's list: u[k] = ETC[b][crit] and v[k] =
// completion[m] − ETC[b][m] for the job b at slot k. BeginSwapScan
// gathers each machine's segment with it.
func gatherPartners[E etcElem](etc []E, machs, crit, m int, cm float64, jobs []int32, u, v []float64) {
	for k, b := range jobs {
		row := int(b) * machs
		u[k] = float64(etc[row+crit])
		v[k] = cm - float64(etc[row+m])
	}
}

// gatherColumn gathers u[k] = ETC[b][col] for the job b at slot k of
// jobs and returns the minimum of u (+Inf for no jobs). The minimum is
// folded in two independent chains, so one load's compare never waits on
// the previous one's. State.bestOn gathers one partner machine's column
// on the critical machine with it per critical-swap query.
func gatherColumn[E etcElem](etc []E, machs, col int, jobs []int32, u []float64) float64 {
	u = u[:len(jobs)]
	lo0, lo1 := math.Inf(1), math.Inf(1)
	k := 0
	for ; k+1 < len(jobs); k += 2 {
		x0, x1 := float64(etc[int(jobs[k])*machs+col]), float64(etc[int(jobs[k+1])*machs+col])
		u[k], u[k+1] = x0, x1
		lo0, lo1 = min(lo0, x0), min(lo1, x1)
	}
	if k < len(jobs) {
		u[k] = float64(etc[int(jobs[k])*machs+col])
		lo0 = min(lo0, u[k])
	}
	return min(lo0, lo1)
}
