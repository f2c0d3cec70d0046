package schedule

import (
	"math"
	"slices"
)

// Batched neighborhood sweeps: vector counterparts of the scalar
// speculative probes (probe.go). Where a probe answers "what fitness
// would this one candidate produce?", a sweep answers the question for a
// whole family of related candidates in one pass, amortising the work the
// scalar path redoes per candidate:
//
//   - FitnessAfterMoveSweep scores moving one job to *every* machine. The
//     removal half of the probe (completionFlowWithout on the source
//     machine) and the "max completion excluding the source" tree query
//     are computed once and reused across all M targets, instead of once
//     per target — the steepest local move (SLM) scans exactly this
//     neighborhood.
//   - SwapScan caches the partner-side terms of every swap against the
//     critical machine, so BestPartner scores one critical job against
//     every partner without gather loads — the reference full scan the
//     cached critical-swap scan (scancache.go) is checked against.
//   - moveScan caches the top machine completions of a frozen state so a
//     batch of unrelated move probes (SA sweeps, tabu candidate scans,
//     through ScanCache.FitnessAfterMove) skips the per-probe
//     tournament-tree walks.
//
// Every sweep inherits the probes' bit-identity contract: each emitted
// value equals, bit for bit, the scalar probe for the same candidate —
// and therefore the historical apply→evaluate→revert number. The
// differential fuzz tests in sweep_test.go pin this, including exact-tie
// and no-op edges, and testdata/golden.json locks that no engine's accept
// decisions moved.
//
// The one inequality the move sweep relies on: replacing the tree query
// "max excluding {from, to}" by "max excluding {from}" folded with the
// hypothetical target completion toC is exact, because ETC values are
// non-negative and float64 addition is monotone under rounding — so toC,
// the replayed completion of machine to with the job spliced in, is >=
// completion[to], and the set maximum cannot change when completion[to]
// rejoins the set. (etc.Instance.Validate rejects non-positive ETC
// entries.)

// grown returns buf resized to n, reallocating only on growth and then
// with append's geometric headroom, so a buffer that creeps upwards
// reallocates O(log n) times — the steady-state path of every sweep is
// allocation-free.
func grown[E any](buf []E, n int) []E {
	return slices.Grow(buf[:0], n)[:n]
}

// FitnessAfterMoveSweep computes FitnessAfterMove(o, j, to) for every
// target machine to in one pass, writing out[to] for to in [0, Machs).
// out[Assign(j)] is the current fitness (the no-op move). A nil out uses
// a buffer owned by the state (valid until the next sweep on it); an
// explicit out must have length >= Machs. The filled prefix is returned.
//
// Cost: one removal replay of the source machine plus one tree walk,
// shared by all targets, and one insertion replay per target — versus the
// scalar path's per-target removal replay, insertion replay and tree
// walk. Allocation-free after warm-up.
func (st *State) FitnessAfterMoveSweep(o Objective, j int, out []float64) []float64 {
	machs := st.inst.Machs
	if out == nil {
		st.sweepFit = grown(st.sweepFit, machs)
		out = st.sweepFit
	} else {
		out = out[:machs]
	}
	from := st.assign[j]
	cur := o.Of(st)
	fromC, fromFlow := st.completionFlowWithout(from, int32(j))
	// Shared makespan base: max completion excluding the source machine,
	// folded with the source's hypothetical completion. Per target only
	// toC remains to fold in (see the monotonicity note above).
	base := st.top.maxExcluding(from)
	if fromC > base {
		base = fromC
	}
	denom := float64(machs)
	remFlow := st.machFlow[from]
	for to := 0; to < machs; to++ {
		if to == from {
			out[to] = cur
			continue
		}
		toC, toFlow := st.completionFlowWith(to, int32(j))
		mk := base
		if toC > mk {
			mk = toC
		}
		if mk < 0 {
			mk = 0
		}
		// Exact replica of the scalar probe's flow composition.
		f := st.flowtime - (remFlow + st.machFlow[to])
		f += fromFlow + toFlow
		out[to] = o.Combine(mk, f/denom)
	}
	return out
}

// SwapScan is a frozen-state batch for critical-machine swap scans — the
// LMCTS neighborhood, which pairs every job of the critical machine with
// every job elsewhere. BeginSwapScan walks the non-critical machines once
// and caches, machine-grouped, the partner-side invariants of the
// completion pair a swap of critical job a with partner b on machine m
// yields, aC = (completion[crit] − ETC[a][crit]) + ETC[b][crit] and
// bC = (completion[m] − ETC[b][m]) + ETC[a][m]: u[k], the partner's cost
// on the critical machine, and v[k], the partner machine's completion
// with the partner removed. BestPartner then scans those flat arrays per
// critical job — no gather loads, two additions and a max per candidate —
// where the scalar scan re-derived both terms from the ETC matrix for
// every (critical job, partner) pair. The scan is invalidated by any
// mutation of the state; begin a fresh one after committing a swap.
type SwapScan struct {
	st   *State
	crit int
	u    []float64 // ETC[b_k][crit]: partner k's cost on the critical machine
	v    []float64 // completion[m_k] − ETC[b_k][m_k]: partner k's machine without it
	ids  []int32   // partner job ids, machine-grouped
	segM []int32   // machine of each group
	off  []int32   // group s covers ids[off[s]:off[s+1]]
}

// BeginSwapScan captures the partner-side swap invariants against the
// critical machine crit. One pass over every non-critical job;
// allocation-free after warm-up (the scan is owned by the state).
func (st *State) BeginSwapScan(crit int) *SwapScan {
	ss := &st.swapScan
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
		if etcs := st.inst.ETC; etcs != nil {
			gatherPartners(etcs, st.inst.Jobs, crit, m, st.completion[m], jobs, u[n:], v[n:])
		} else {
			gatherPartners(st.inst.ETC32, st.inst.Jobs, crit, m, st.completion[m], jobs, u[n:], v[n:])
		}
		ids = append(ids, jobs...)
	}
	off = append(off, int32(len(ids)))
	ss.u, ss.v, ss.ids, ss.segM, ss.off = u, v, ids, segM, off
	return ss
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
	if st.etc64 != nil {
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
	// Narrow backing: the critical job's entry is read once per partner
	// machine (ca above, w below), so per-segment At dispatch costs
	// nothing against the flat inner loop.
	ca := st.completion[ss.crit] - st.inst.At(a, ss.crit)
	for s, m := range ss.segM {
		w := st.inst.At(a, int(m))
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

// moveScan is a frozen-state batch of move probes: it caches the current
// fitness and the top three machine completions, so each probe answers
// the "max completion excluding the two touched machines" query from the
// cache in O(1) instead of walking the tournament tree. Build one with
// beginMoveScan, probe with FitnessAfterMove; the scan is invalidated by
// any mutation of the state (Move, Swap, SetSchedule, CopyFrom). The scan
// cache owns the only live one and recaptures it whenever the state's
// epoch moves (ScanCache.FitnessAfterMove).
type moveScan struct {
	st         *State
	o          Objective
	cur        float64
	v1, v2, v3 float64
	i1, i2     int
}

// beginMoveScan captures the probe context of the state's current value.
// O(log M).
func (st *State) beginMoveScan(o Objective) moveScan {
	ms := moveScan{st: st, o: o, cur: o.Of(st)}
	ms.v1 = st.top.max()
	ms.i1 = st.top.argmax()
	ms.v2, ms.i2 = st.top.maxExcludingArg(ms.i1)
	if ms.i2 >= 0 {
		ms.v3 = st.top.maxExcluding2(ms.i1, ms.i2)
	} else {
		ms.v3 = math.Inf(-1)
	}
	return ms
}

// maxExcluding2 answers the tree query of the same name from the cached
// top completions. At most two machines are excluded, so the third-best
// value is always a valid floor; ties are value-exact because a tied
// maximum excluded by index survives at its other witnesses.
func (ms *moveScan) maxExcluding2(i, j int) float64 {
	if ms.i1 != i && ms.i1 != j {
		return ms.v1
	}
	if ms.i2 >= 0 && ms.i2 != i && ms.i2 != j {
		return ms.v2
	}
	return ms.v3
}

// FitnessAfterMove is State.FitnessAfterMove evaluated against the scan's
// frozen state — bit-identical, with the tree walk served from the cache.
func (ms *moveScan) FitnessAfterMove(j, to int) float64 {
	st := ms.st
	from := st.assign[j]
	if from == to {
		return ms.cur
	}
	fromC, fromFlow := st.completionFlowWithout(from, int32(j))
	toC, toFlow := st.completionFlowWith(to, int32(j))
	mk := ms.maxExcluding2(from, to)
	if fromC > mk {
		mk = fromC
	}
	if toC > mk {
		mk = toC
	}
	if mk < 0 {
		mk = 0
	}
	f := st.flowtime - (st.machFlow[from] + st.machFlow[to])
	f += fromFlow + toFlow
	return ms.o.Combine(mk, f/float64(st.inst.Machs))
}
