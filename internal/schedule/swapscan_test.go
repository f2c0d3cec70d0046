package schedule

import (
	"math"
	"slices"
)

// The reference scans the tests check the shipped fast paths against,
// and the test-only copy of a State.

// SwapScan is the reference full scan of the LMCTS neighborhood, which
// pairs every job of the critical machine with every job elsewhere: the
// cached critical-swap scan (ScanCache.BestCriticalSwap) and the shipped
// LMCTS are checked against it. Begin walks the non-critical machines once
// and caches, machine-grouped, the partner-side invariants of the
// completion pair a swap of critical job a with partner b on machine m
// yields, aC = (completion[crit] − ETC[a][crit]) + ETC[b][crit] and
// bC = (completion[m] − ETC[b][m]) + ETC[a][m]: u[k], the partner's cost
// on the critical machine, and v[k], the partner machine's completion
// with the partner removed. BestPartner then scans those flat arrays per
// critical job — no gather loads, two additions and a max per candidate —
// where the scalar scan re-derived both terms from the ETC matrix for
// every (critical job, partner) pair. The scan is invalidated by any
// mutation of the state; begin it afresh after committing a swap.
type SwapScan struct {
	st   *State
	crit int
	u    []float64 // ETC[b_k][crit]: partner k's cost on the critical machine
	v    []float64 // completion[m_k] − ETC[b_k][m_k]: partner k's machine without it
	ids  []int32   // partner job ids, machine-grouped
	segM []int32   // machine of each group
	off  []int32   // group s covers ids[off[s]:off[s+1]]
}

// Begin captures st's partner-side swap invariants against the critical
// machine crit. One pass over every non-critical job; allocation-free
// once the scan's buffers have grown.
func (ss *SwapScan) Begin(st *State, crit int) {
	ss.st, ss.crit = st, crit
	machs := st.inst.Machs
	u, v := ss.u[:0], ss.v[:0]
	ids := ss.ids[:0]
	segM, off := ss.segM[:0], ss.off[:0]
	for m := 0; m < machs; m++ {
		if m == crit {
			continue
		}
		jobs := st.machJobs[m]
		if len(jobs) == 0 {
			continue
		}
		n := len(ids)
		segM = append(segM, int32(m))
		off = append(off, int32(n))
		u = slices.Grow(u, len(jobs))[:n+len(jobs)]
		v = slices.Grow(v, len(jobs))[:n+len(jobs)]
		gatherPartners(st.inst.ETC, st.inst.Jobs, crit, m, st.completion[m], jobs, u[n:], v[n:])
		ids = append(ids, jobs...)
	}
	off = append(off, int32(len(ids)))
	ss.u, ss.v, ss.ids, ss.segM, ss.off = u, v, ids, segM, off
}

// BestPartner returns, for critical job a, the minimum over all partner
// jobs b of max(aC, bC) — the completion pair of swapping a with b —
// together with the partner attaining it (-1 when no partner exists).
// Among exact ties the smallest partner id wins, which reproduces the
// historical ascending-id scalar scan's strict-< fold bit for bit. Each
// emitted pair equals the scalar query's values exactly; only the max is
// folded with a plain comparison, whose sole divergence from math.Max
// (the sign of a zero when both halves are zeros) cannot affect any
// comparison downstream.
func (ss *SwapScan) BestPartner(a int) (float64, int) {
	st := ss.st
	best, bestB := math.Inf(1), -1
	u, v, ids := ss.u, ss.v, ss.ids
	ca := st.completion[ss.crit] - st.col(ss.crit)[a]
	for s, m := range ss.segM {
		w := st.col(int(m))[a]
		for k := ss.off[s]; k < ss.off[s+1]; k++ {
			x := ca + u[k]
			if y := v[k] + w; y > x {
				x = y
			}
			if x < best || (x == best && int(ids[k]) < bestB) {
				best, bestB = x, int(ids[k])
			}
		}
	}
	return best, bestB
}

// gatherPartners captures the partner side of critical-machine swaps
// for partner machine m's list: u[k] = ETC[b][crit] and v[k] =
// completion[m] − ETC[b][m] for the job b at slot k. It reads two
// columns, crit's and m's. SwapScan.Begin gathers each machine's segment
// with it.
func gatherPartners(etc []float64, n, crit, m int, cm float64, jobs []int32, u, v []float64) {
	colC, colM := etc[crit*n:(crit+1)*n], etc[m*n:(m+1)*n]
	for k, b := range jobs {
		u[k] = colC[b]
		v[k] = cm - colM[b]
	}
}

// Clone returns an independent copy of the state, carrying its epoch,
// its machine versions and its scan-exempt flags. The per-machine lists
// land in a freshly carved region backing — a handful of allocations
// total, not three per machine.
func (st *State) Clone() *State {
	cp := NewBlankState(st.inst)
	cp.CopyFrom(st)
	cp.epoch = st.epoch
	if st.scanExempt != nil {
		cp.scanExempt = append([]bool(nil), st.scanExempt...)
	}
	return cp
}
