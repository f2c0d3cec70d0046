package schedule

// Speculative probe evaluation: the exact scalarised fitness a
// hypothetical Move or Swap would produce, computed without mutating the
// state and without allocating.
//
// The bit-identity contract. A probe returns the same float64, bit for
// bit, that the historical apply→Objective.Of→revert sequence observed:
// the hypothetical per-machine completion and flowtime are recomputed by
// replaying refreshFrom's summation loop (same terms, same order) over
// the machine's job list with the moved job skipped or spliced in, and
// the state flowtime is composed with the exact subtract-then-add
// expression Move and Swap use. Search methods can therefore switch from
// apply+revert probing to probe-then-commit without changing a single
// accept decision, which keeps every engine's output schedules
// byte-identical (locked by testdata/golden.json and the differential
// tests in probe_test.go).
//
// Costs: the makespan side is O(log M) — the tournament tree answers
// "max completion excluding the two touched machines" and only the two
// hypothetical completions are folded in — and the flowtime side is one
// read-only pass over the two affected machines' job lists. An
// apply+revert probe paid two Moves: slice shifts, slot repairs, binary
// searches and four refreshFrom passes, plus two full fitness reads.

// FitnessAfterMove returns the fitness Objective.Of would report after
// Move(j, to), without modifying the state. Moving a job to its current
// machine is a no-op, so the current fitness is returned.
func (st *State) FitnessAfterMove(o Objective, j, to int) float64 {
	from := st.assign[j]
	if from == to {
		return o.Of(st)
	}
	fromC, fromFlow := st.completionFlowWithout(from, int32(j))
	toC, toFlow := st.completionFlowWith(to, int32(j))
	mk := st.top.maxExcluding2(from, to)
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
	return o.Combine(mk, f/float64(st.inst.Machs))
}

// FitnessAfterSwap returns the fitness Objective.Of would report after
// Swap(a, b), without modifying the state. Swapping jobs of the same
// machine is a no-op, so the current fitness is returned.
func (st *State) FitnessAfterSwap(o Objective, a, b int) float64 {
	ma, mb := st.assign[a], st.assign[b]
	if ma == mb {
		return o.Of(st)
	}
	aC, aFlow := st.completionFlowReplace(ma, int32(a), int32(b))
	bC, bFlow := st.completionFlowReplace(mb, int32(b), int32(a))
	mk := st.top.maxExcluding2(ma, mb)
	if aC > mk {
		mk = aC
	}
	if bC > mk {
		mk = bC
	}
	if mk < 0 {
		mk = 0
	}
	f := st.flowtime - (st.machFlow[ma] + st.machFlow[mb])
	f += aFlow + bFlow
	return o.Combine(mk, f/float64(st.inst.Machs))
}

// insertPos returns the (ETC, id) insertion index of job j in machine
// m's sorted list — the same binary search insert performs.
func (st *State) insertPos(m int, j int32) int {
	jobs := st.machJobs[m]
	lo, hi := 0, len(jobs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.less(jobs[mid], j, m) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefix returns machine m's recorded partial sums before slot k: the
// completion and flowtime refreshFrom had produced after the first k
// jobs. Reusing the recorded bits (rather than resumming) keeps probes and
// commits exact and halves a probe's work on average.
func (st *State) prefix(m, k int) (completion, flow float64) {
	if k > 0 {
		return st.machCumC[m][k-1], st.machCumF[m][k-1]
	}
	return st.inst.Ready[m], 0
}

// completionFlowWithout replays refreshFrom over machine m's job list
// with job j skipped: the completion and flowtime m would have after
// remove(j, m). Only the suffix after j's slot is resummed.
func (st *State) completionFlowWithout(m int, j int32) (completion, flow float64) {
	jobs := st.machJobs[m]
	s := int(st.slot[j])
	t, f := st.prefix(m, s)
	col := st.col(m)
	for _, x := range jobs[s+1:] {
		t += col[x]
		f += t
	}
	return t, f
}

// completionFlowWith replays refreshFrom over machine m's job list
// with job j spliced in at its (ETC, id) position: the completion and
// flowtime m would have after insert(j, m). Only the suffix from the
// insertion point is resummed.
func (st *State) completionFlowWith(m int, j int32) (completion, flow float64) {
	jobs := st.machJobs[m]
	p := st.insertPos(m, j)
	t, f := st.prefix(m, p)
	col := st.col(m)
	t += col[j]
	f += t
	for _, x := range jobs[p:] {
		t += col[x]
		f += t
	}
	return t, f
}

// completionFlowReplace replays refreshFrom over machine m's job list
// with job out skipped and job in spliced at its (ETC, id) position among
// the remaining jobs — the per-machine half of a Swap. The resummation
// starts at the first affected slot.
//
// The body loads each survivor's entry once from machine m's column and
// splices in before the first survivor whose entry is not smaller. less
// would break a tie of equal entries by id, but either order adds the
// same values in the same sequence, so completion and flowtime keep
// their bits without the tie-break. This is the hottest replay in the
// engine (every cached-scan iteration probes its candidate swap through
// it), which is why it does not call less.
func (st *State) completionFlowReplace(m int, out, in int32) (completion, flow float64) {
	jobs := st.machJobs[m]
	start := int(st.slot[out])
	if p := st.insertPos(m, in); p < start {
		start = p
	}
	t, f := st.prefix(m, start)
	inserted := false
	col := st.col(m)
	e := col[in]
	for _, x := range jobs[start:] {
		if x == out {
			continue
		}
		xe := col[x]
		if !inserted && xe >= e {
			t += e
			f += t
			inserted = true
		}
		t += xe
		f += t
	}
	if !inserted {
		t += e
		f += t
	}
	return t, f
}
