package schedule

// gatherPartners is the one ETC-matrix kernel generic over the backing
// (float64, or the float32 of etc.GenSpec.Float32 that halves a frontier
// matrix's footprint): a plain gather, it serves both backings for the
// critical-swap scan (whose pair loop is then shared) and for
// BeginSwapScan. Entries are widened to float64 at the load; all
// arithmetic downstream of the load is identical for both backings.
// Everything else reads through At, whose backing branch is one
// perfectly predicted test per call.

type etcElem interface{ ~float32 | ~float64 }

// gatherPartners captures the partner side of critical-machine swaps
// for partner machine m's list: u[k] = ETC[b][crit] and v[k] =
// completion[m] − ETC[b][m] for the job b at slot k. State.bestOn
// gathers one partner machine's list with it per critical-swap query,
// and BeginSwapScan each machine's segment.
func gatherPartners[E etcElem](etc []E, machs, crit, m int, cm float64, jobs []int32, u, v []float64) {
	for k, b := range jobs {
		row := int(b) * machs
		u[k] = float64(etc[row+crit])
		v[k] = cm - float64(etc[row+m])
	}
}
