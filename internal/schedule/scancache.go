package schedule

import "math"

// Scan caching: the query layer over the batched sweep kernels
// (sweep.go) that the local searches call every step.
//
// The move side memoizes the frozen-state probe context (moveScan),
// keyed on the state's global epoch: between two commits every probe and
// every accept baseline is served from it without re-reading the state
// or re-walking the tournament tree. Move neighborhoods scored by the
// scalarised fitness do not factorize per machine — a candidate's
// fitness folds the flowtime and completions of *every* machine — so
// nothing finer than the whole-state context can be reused.
//
// The swap side, the LMCTS critical-swap query, memoizes nothing: every
// swap LMCTS commits moves a job off the critical machine, which changes
// the critical context every per-machine result would be computed
// against, so a per-machine memo never hits on LMCTS traffic. Instead
// each query is one bounded pass over the partner machines (bestOn):
// the critical side of every pair is computed once per query, the
// running best is carried from machine to machine as the next machine's
// bound, and SPT order lets a lower bound skip every pair that provably
// loses. Per partner machine the pass gathers one ETC column, the
// partners' costs on the critical machine; a cut that only moves left
// along the critical rows skips the partners whose cost there alone
// loses, and the partners' own-machine costs are loaded only for the
// pairs the scan reaches. The winner is the historical full scan's bit
// for bit; the brute-force oracle and fuzz in scancache_test.go pin this
// across random commit sequences, tie-heavy integer instances and LMCTS
// runs on the benchmark's shapes included.
//
// The state's machine epochs (state.go: machEpoch, advanced by the
// noteCommit hook) serve the daemon's digest; the move context compares
// the global epoch on every read, so a caller need do nothing before
// handing a state to a pool or to another search.
type ScanCache struct {
	st *State
	o  Objective

	// Move side: the frozen-state probe context of beginMoveScan,
	// revalidated only when the global epoch moves.
	move      moveScan
	moveEpoch uint64 // epoch the context was captured at; 0 = never
}

// Scans returns the state's scan cache bound to objective o. Changing
// the objective invalidates the move-side context. Every query is
// allocation-free once the state's scratch buffers have grown.
func (st *State) Scans(o Objective) *ScanCache {
	sc := &st.scanCache
	if sc.st == nil {
		sc.st = st
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
// One bounded pass: partner machines are folded in index order, each
// scanned by bestOn from the best pair found so far, so a machine none of
// whose pairs can reach that bound costs a few comparisons.
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
	// ca[apos] = critC − ETC[a][crit], the critical side of every pair
	// of the critical job a at SPT position apos: the same on every
	// partner machine, so it is computed once per query.
	in, critC := st.inst, st.completion[crit]
	st.scanCa = grown(st.scanCa, len(critJobs))
	ca := st.scanCa
	for apos, a := range critJobs {
		ca[apos] = critC - in.At(int(a), crit)
	}
	best := math.Inf(1)
	bestAPos, bestB := int32(-1), int32(-1)
	for m := range st.machJobs {
		if m == crit || (st.scanExempt != nil && st.scanExempt[m]) {
			continue
		}
		best, bestAPos, bestB = st.bestOn(m, crit, critJobs, ca, best, bestAPos, bestB)
	}
	if bestB < 0 {
		return math.Inf(1), -1, -1
	}
	return best, int(critJobs[bestAPos]), int(bestB)
}

// bestOn folds partner machine m into the running best (best, bestAPos,
// bestB) of the critical-swap query: it returns the lexicographic
// minimum of that triple and every (max(aC, bC), aPos, b) over critical
// jobs a, at SPT position aPos, and jobs b on m — the completion pair of
// swapping a with b.
//
// Exactness. Every pair that is scored uses the arithmetic of
// SwapScan.BestPartner's flat scan, aC = (critC − ETC[a][crit]) +
// ETC[b][crit] and bC = (cm − ETC[b][m]) + ETC[a][m], with the same
// operands in the same order, so every emitted float is bit-identical to
// the full-sweep path. The historical scan folds strict-< across
// critical jobs (first a in SPT order wins a tie) and smallest-id within
// one (per-a BestPartner), which is exactly the lexicographic minimum of
// (value, aPos, b) over all pairs; folding machine after machine into
// one running lexicographic best yields the same minimum.
//
// Pruning. The scan skips pairs it can prove lose, and stays exact
// because of four facts:
//   - Both lists are in SPT order: critJobs ascends in ETC[a][crit] and
//     m's list in ETC[b][m] (ties by id, state.go).
//   - Round-to-nearest addition and subtraction are monotone, so
//     ca = critC − ETC[a][crit] never increases along critJobs, and
//     v[k] = cm − ETC[b_k][m] never increases along m's list.
//   - ETC entries are finite and positive (the instance contract
//     etc.Instance.Validate checks), so no NaN or infinity arises and
//     every comparison below is a total order on the values compared.
//   - The update compares (value, aPos, b) lexicographically, so the
//     winner does not depend on the order pairs are visited in, nor on
//     the bound a machine's scan starts from (the best of the machines
//     folded before it).
//
// The critical side ca of each row comes precomputed from the query
// (BestCriticalSwap), and the only partner column gathered is u[k] =
// ETC[b_k][crit], with its minimum minU; the partner side v[k] is loaded
// only at the pairs the scan reaches. Critical jobs are visited from the
// tail of their list, where ca is smallest. ca + minU bounds every aC of
// row a and never decreases in the row order, so the scan stops once it
// exceeds best. A row whose smallest bC, v[n−1] + w, exceeds best is
// skipped. Otherwise the row's partners from slot cut on all have
// ca + u[k] > best and lose. Along the rows ca only grows and best only
// falls, so a slot once cut stays cut: cut starts at n, only moves left,
// and each row walks it down past the slots whose ca + u[k] exceeds
// best — over all rows, one comparison per slot of m's list plus one per
// row. Since ca + min(x, y) = min(ca + x, ca + y) under monotone
// rounding, the cut is the first slot k ≥ 1 with ca + min(u[k..n−1]) >
// best: the tightest such cut, found without storing a suffix minimum.
// Slot 0 always stays in: the row break leaves a slot with ca + u[k] ≤
// best, and it is slot 0 once every other is cut. The remaining
// partners are visited from just below the cut towards the head of m's
// list, where bC = v[k] + w grows, so each row stops at the first bC
// above best. Every cut is on a strict >: a pair tying best may still
// win on (aPos, b) and is always scored.
func (st *State) bestOn(m, crit int, critJobs []int32, ca []float64, best float64, bestAPos, bestB int32) (float64, int32, int32) {
	jobs := st.machJobs[m]
	n := len(jobs)
	if n == 0 {
		return best, bestAPos, bestB
	}
	in := st.inst
	st.scanU = grown(st.scanU, n)
	u := st.scanU
	var minU float64
	if etcs := in.ETC; etcs != nil {
		minU = gatherColumn(etcs, in.Jobs, crit, jobs, u)
	} else {
		minU = gatherColumn(in.ETC32, in.Jobs, crit, jobs, u)
	}
	cm := st.completion[m]
	minV := cm - in.At(int(jobs[n-1]), m) // v[n−1], the smallest v
	cut := n
	for apos := len(critJobs) - 1; apos >= 0; apos-- {
		c := ca[apos]
		if c+minU > best {
			break
		}
		w := in.At(int(critJobs[apos]), m)
		if minV+w > best {
			continue
		}
		for cut > 1 && c+u[cut-1] > best {
			cut--
		}
		for k := cut - 1; k >= 0; k-- {
			b := jobs[k]
			y := (cm - in.At(int(b), m)) + w
			if y > best {
				break
			}
			x := c + u[k]
			if y > x {
				x = y
			}
			if x < best || (x == best &&
				(int32(apos) < bestAPos || (int32(apos) == bestAPos && b < bestB))) {
				best, bestAPos, bestB = x, int32(apos), b
			}
		}
	}
	return best, bestAPos, bestB
}
