package schedule

import "math"

// Generic ETC-matrix kernels for the float32 backing
// (etc.GenSpec.Float32, halving a frontier matrix's footprint): the few
// evaluation loops hot enough to read the flat matrix directly dispatch
// once on the backing and run these stencils under ETC32, mirroring the
// hand-written float64 loops at their call sites line for line. (Those
// float64 originals stay hand-written rather than instantiating these
// with E = float64: the generic instantiation measured 10–40% slower on
// the scan benchmarks, and those loops carry the bit-identity contract.)
// gatherPartners is the exception: a plain gather, it serves both
// backings for the cached scan (whose pair loop is then shared) and for
// BeginSwapScan.
// Entries are widened to float64 at the load; all arithmetic downstream
// of the load is identical for both backings.
//
// Everything else reads through At, whose backing branch is one perfectly
// predicted test per call.

type etcElem interface{ ~float32 | ~float64 }

// swapSweepFill is CompletionAfterSwapSweep's scan of partner machine m's
// job list: per slot, the post-swap completion pair against critical-side
// terms hoisted by the caller (caBase, w) and m's own completion cm.
func swapSweepFill[E etcElem](etc []E, machs, ma, m int, caBase, w, cm float64, jobs []int32, aOut, bOut []float64) {
	for k, b := range jobs {
		row := int(b) * machs
		aOut[k] = caBase + float64(etc[row+ma])
		bOut[k] = (cm - float64(etc[row+m])) + w
	}
}

// gatherPartners captures the partner side of critical-machine swaps
// for partner machine m's list: u[k] = ETC[b][crit] and v[k] =
// completion[m] − ETC[b][m] for the job b at slot k. It returns the
// minimum u. ScanCache.bestOn gathers one memo entry's list with it and
// BeginSwapScan each machine's segment.
func gatherPartners[E etcElem](etc []E, machs, crit, m int, cm float64, jobs []int32, u, v []float64) float64 {
	minU := math.Inf(1)
	for k, b := range jobs {
		row := int(b) * machs
		x := float64(etc[row+crit])
		if x < minU {
			minU = x
		}
		u[k] = x
		v[k] = cm - float64(etc[row+m])
	}
	return minU
}
