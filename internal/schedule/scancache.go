package schedule

import "math"

// Event-driven scan caching: the delta layer over the batched sweep
// kernels (sweep.go). The sweeps made each neighborhood scan optimal *per
// candidate*; iteration cost was still O(M) machines re-swept per step,
// even though a committed Move or Swap changes exactly two machines and
// leaves every other machine's cached scan result bit-for-bit valid.
//
// ScanCache turns that observation into an invalidation protocol. The
// state stamps every machine with the epoch of its last content change
// (state.go: machEpoch, advanced by the noteCommit hook); the cache
// memoizes, per machine, the result of scanning that machine — currently
// the machine's best critical-swap partner entry — together with the
// epoch it was computed at. A query then re-sweeps only the machines
// whose epoch moved and folds the memoized per-machine bests, anchored on
// the max-tree's root (the critical machine): per-iteration scan work
// drops from O(M) machines to O(changed), and to a plain O(M) fold of
// cached scalars once the cache is warm.
//
// The epochs are the whole protocol: a commit stamps only the machines it
// changed and every query compares stamps, so a caller need do nothing
// before handing a state to a pool or to another search.
//
// Exactness. Every memoized entry scores its pairs with the same
// arithmetic as SwapScan.BestPartner's flat scan, skipping only pairs it
// can prove lose, and an entry is reused only while both its machine's
// epoch and the critical machine's (identity, epoch) pair are unchanged —
// the inputs of every float in the entry. The per-machine/fold
// decomposition reproduces the historical ascending-id scan's winner
// exactly (see bestOn for the tie-break and pruning arguments), so a
// cached query equals a full rescan bit for bit; the
// differential fuzz in scancache_test.go pins this across thousands of
// random commit/invalidate sequences, tie-heavy integer instances
// included.
//
// The critical-swap scan is the memoizable neighborhood because it
// factorizes: with the critical machine fixed, each partner machine's
// contribution depends only on that machine's own contents (and the
// shared critical context). Move neighborhoods scored by the scalarised
// fitness do not factorize per machine — a candidate's fitness folds the
// flowtime and completions of *every* machine, so any commit anywhere
// invalidates a memoized per-machine "best move" — which is why the move
// side of the cache memoizes the frozen-state probe context (moveScan)
// keyed on the global epoch instead of per-machine bests.
type ScanCache struct {
	st *State
	o  Objective

	// Move side: the frozen-state probe context of beginMoveScan,
	// revalidated only when the global epoch moves — between commits,
	// every probe and every accept baseline is served from it without
	// re-reading the state or re-walking the tournament tree.
	move      moveScan
	moveEpoch uint64 // epoch the context was captured at; 0 = never

	// Swap side: per-partner-machine memo of the critical-swap scan,
	// valid against (swapCrit, swapCritEpoch).
	swapCrit      int    // critical machine the entries were computed against
	swapCritEpoch uint64 // its machine epoch at computation; 0 = never
	entryEpoch    []uint64
	entryVal      []float64 // best max(aC, bC) over (a ∈ crit, b ∈ m)
	entryAPos     []int32   // winning critical job's position in SPT order
	entryB        []int32   // winning partner id; -1 = machine empty
}

// Scans returns the state's scan cache bound to objective o, sizing its
// memo arrays on first use (the only allocation; every query afterwards
// is allocation-free). Changing the objective invalidates the move-side
// context; the swap-side entries are completion-based and survive.
func (st *State) Scans(o Objective) *ScanCache {
	sc := &st.scanCache
	if sc.st == nil {
		sc.st = st
		sc.swapCrit = -1
		machs := st.inst.Machs
		sc.entryEpoch = make([]uint64, machs)
		sc.entryVal = make([]float64, machs)
		sc.entryAPos = make([]int32, machs)
		sc.entryB = make([]int32, machs)
		sc.o = o
	} else if sc.o != o {
		sc.o = o
		sc.moveEpoch = 0
	}
	return sc
}

// freshenMove recaptures the frozen-state probe context iff the state
// changed since the last capture.
func (sc *ScanCache) freshenMove() {
	if sc.moveEpoch != sc.st.epoch {
		sc.move = sc.st.beginMoveScan(sc.o)
		sc.moveEpoch = sc.st.epoch
	}
}

// Fitness returns the state's current fitness under the cache's
// objective — bit-identical to Objective.Of, served from the cached probe
// context between commits.
func (sc *ScanCache) Fitness() float64 {
	sc.freshenMove()
	return sc.move.cur
}

// FitnessAfterMove is State.FitnessAfterMove through the cached probe
// context: bit-identical, with the tournament-tree walk memoized across
// every probe between two commits (the LM and SA/tabu candidate loops).
func (sc *ScanCache) FitnessAfterMove(j, to int) float64 {
	sc.freshenMove()
	return sc.move.FitnessAfterMove(j, to)
}

// BestMoveTarget scores moving job j to every machine through one batched
// sweep and returns the steepest target with the historical fold: the
// current fitness is the baseline, candidates are scanned in ascending
// machine order with a strict-< fold (so among exact ties the lowest
// target wins), and the job's own machine is returned when no target
// improves — exactly the SLM inner loop, bit for bit.
func (sc *ScanCache) BestMoveTarget(j int) (float64, int) {
	st := sc.st
	fits := st.FitnessAfterMoveSweep(sc.o, j, nil)
	from := st.assign[j]
	bestFit, bestTo := fits[from], from
	for to, f := range fits {
		if to != from && f < bestFit {
			bestFit, bestTo = f, to
		}
	}
	return bestFit, bestTo
}

// BestCriticalSwap returns the best swap between the current critical
// machine and the rest — the LMCTS full-scan neighborhood — as the
// minimal max(aC, bC) completion pair with its jobs (a on the critical
// machine, b elsewhere; b = -1 when no partner exists). The winner is the
// historical ascending-scan one: strict-< across critical jobs in SPT
// order, smallest partner id within a critical job.
//
// Event-driven: per-machine bests are memoized and only machines whose
// epoch moved since their entry was computed are re-swept; a change of
// the critical machine's identity or contents invalidates every entry
// (each one is computed against the critical context). Steady state — no
// commits since the last query — costs one O(M) fold of cached scalars.
func (sc *ScanCache) BestCriticalSwap() (float64, int, int) {
	st := sc.st
	crit := st.MakespanMachine()
	if st.scanExempt != nil && st.scanExempt[crit] {
		// An exempt machine's jobs are never scanned — when the exempt
		// machine is itself critical (the daemon's parking column with no
		// jobs placed on real machines), no swap involves it either.
		return math.Inf(1), -1, -1
	}
	critJobs := st.machJobs[crit]
	if len(critJobs) == 0 {
		return math.Inf(1), -1, -1
	}
	if crit != sc.swapCrit || st.machEpoch[crit] != sc.swapCritEpoch {
		for m := range sc.entryEpoch {
			sc.entryEpoch[m] = 0
		}
		sc.swapCrit, sc.swapCritEpoch = crit, st.machEpoch[crit]
	}
	bestVal := math.Inf(1)
	bestAPos, bestB := int32(-1), int32(-1)
	for m := range sc.entryEpoch {
		if m == crit || (st.scanExempt != nil && st.scanExempt[m]) {
			continue
		}
		if sc.entryEpoch[m] != st.machEpoch[m] {
			sc.entryVal[m], sc.entryAPos[m], sc.entryB[m] = st.bestOn(m, crit, critJobs)
			sc.entryEpoch[m] = st.machEpoch[m]
		}
		if sc.entryB[m] < 0 {
			continue
		}
		v, apos, b := sc.entryVal[m], sc.entryAPos[m], sc.entryB[m]
		if v < bestVal ||
			(v == bestVal && (apos < bestAPos || (apos == bestAPos && b < bestB))) {
			bestVal, bestAPos, bestB = v, apos, b
		}
	}
	if bestB < 0 {
		return math.Inf(1), -1, -1
	}
	return bestVal, int(critJobs[bestAPos]), int(bestB)
}

// bestOn computes partner machine m's memo entry: the minimum over
// critical jobs a and jobs b on m of max(aC, bC) — the completion pair
// of swapping a with b — with the winning critical job's SPT position and
// partner id.
//
// Exactness. Every pair that is scored uses the arithmetic of
// SwapScan.BestPartner's flat scan, aC = (critC − ETC[a][crit]) +
// ETC[b][crit] and bC = (cm − ETC[b][m]) + ETC[a][m], so every emitted
// float is bit-identical to the full-sweep path. The entry is the
// lexicographic minimum of (value, aPos, b): the historical scan folds
// strict-< across critical jobs (first a in SPT order wins a tie) and
// smallest-id within one (per-a BestPartner), so folding the per-machine
// entries by the same lexicographic order (BestCriticalSwap) yields the
// exact winner of the flat scan — no machine holds a pair
// lexicographically below its own entry.
//
// Pruning. The scan skips pairs it can prove lose, and stays exact
// because of four facts:
//   - Both lists are in SPT order: critJobs ascends in ETC[a][crit] and
//     m's list in ETC[b][m] (ties by id, state.go).
//   - Round-to-nearest addition and subtraction are monotone, so
//     ca = critC − ETC[a][crit] never increases along critJobs, and
//     v[k] = cm − ETC[b_k][m] never increases along m's list.
//   - ETC entries are finite and non-negative, so no NaN arises and every
//     comparison below is a total order on the values compared.
//   - The update compares (value, aPos, b) lexicographically, so the
//     winner does not depend on the order pairs are visited in.
//
// Critical jobs are visited from the tail of their list, where ca is
// smallest: ca + minU bounds every value of row a from below and never
// decreases in this order, so the scan stops once it exceeds best. A row
// whose smallest bC, v[n−1] + w, exceeds best is skipped, and partners
// are visited from the tail of m's list, where bC = v[k] + w is smallest
// and grows, so each row stops at the first bC above best. Every cut is
// on a strict >: a pair tying best may still win on (aPos, b) and is
// always scored.
func (st *State) bestOn(m, crit int, critJobs []int32) (float64, int32, int32) {
	jobs := st.machJobs[m]
	n := len(jobs)
	if n == 0 {
		return math.Inf(1), -1, -1
	}
	in := st.inst
	critC := st.completion[crit]
	st.scanU, st.scanV = grown(st.scanU, n), grown(st.scanV, n)
	u, v := st.scanU, st.scanV
	var minU float64
	if etcs := in.ETC; etcs != nil {
		minU = gatherPartners(etcs, in.Machs, crit, m, st.completion[m], jobs, u, v)
	} else {
		minU = gatherPartners(in.ETC32, in.Machs, crit, m, st.completion[m], jobs, u, v)
	}
	minV := v[n-1]
	best := math.Inf(1)
	bestAPos, bestB := int32(-1), int32(-1)
	for apos := len(critJobs) - 1; apos >= 0; apos-- {
		a := int(critJobs[apos])
		ca := critC - in.At(a, crit)
		if ca+minU > best {
			break
		}
		w := in.At(a, m)
		if minV+w > best {
			continue
		}
		for k := n - 1; k >= 0; k-- {
			y := v[k] + w
			if y > best {
				break
			}
			x := ca + u[k]
			if y > x {
				x = y
			}
			if b := jobs[k]; x < best || (x == best &&
				(int32(apos) < bestAPos || (int32(apos) == bestAPos && b < bestB))) {
				best, bestAPos, bestB = x, int32(apos), b
			}
		}
	}
	return best, bestAPos, bestB
}
