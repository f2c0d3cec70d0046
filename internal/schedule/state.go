package schedule

import (
	"fmt"
	"slices"

	"gridcma/internal/etc"
)

// State is an incrementally maintained evaluation of one schedule.
//
// Per machine it tracks the set of assigned jobs sorted ascending by ETC
// (shortest-processing-time order, the per-machine sequencing convention
// for flowtime on this benchmark), the completion time
//
//	completion[m] = ready[m] + Σ_{j on m} ETC[j][m]
//
// and the machine's flowtime contribution. Move and Swap update these in
// O(jobs-on-machine); the machine completions additionally feed an indexed
// tournament tree (maxtree.go) maintained in O(log M) per machine refresh,
// which makes Makespan and MakespanMachine O(1) reads and answers the
// "max completion excluding machine(s)" query behind the speculative
// FitnessAfterMove / FitnessAfterSwap probes (probe.go).
type State struct {
	inst *etc.Instance
	// etc64 is inst.ETC, hoisted at construction: the per-element replay
	// loops (probe.go, refreshMachine, rebuild's key fill) index it
	// directly when the instance has the float64 backing, falling back to
	// the At accessor under the narrow float32 backing — one predictable
	// branch per call instead of one per matrix read, which measurably
	// matters in the sub-microsecond cached-scan path.
	etc64    []float64
	assign   Schedule
	machJobs [][]int32 // per machine, job ids sorted by (ETC, id)
	slot     []int32   // slot[j] = index of job j within machJobs[assign[j]]
	// machCumC[m][k] / machCumF[m][k] are the running completion and
	// flowtime of machine m after its k-th job — refreshMachine's partial
	// sums, recorded as they are produced. A speculative probe reuses the
	// prefix before the edited slot verbatim (the bits are refreshMachine's
	// own) and only resums the suffix, halving its work on average.
	machCumC   [][]float64
	machCumF   [][]float64
	completion []float64
	machFlow   []float64
	flowtime   float64
	top        maxTree // argmax over completion, O(log M) maintenance

	// Change tracking for the event-driven scan cache (scancache.go).
	// epoch counts committed mutations; machEpoch[m] is the epoch of
	// machine m's last content change — a cached per-machine scan result
	// is valid exactly while the machine's epoch is unchanged. The dirty
	// set (mark + id list, both bounded by the machine count) is the
	// commit event log: a Move or Swap marks its source and target
	// machines, plus the old and new critical machine when the tournament
	// tree's root moved. The attached ScanCache drains it on every query;
	// wholesale re-evaluations (SetSchedule, CopyFrom, rebuild) clear it
	// outright, because bumping every machine's epoch already invalidates
	// every cached entry — a pooled state is therefore reused with an
	// empty dirty set, never carrying pending marks across runs.
	epoch     uint64
	machEpoch []uint64
	dirtyIDs  []int32
	dirtyMark []bool

	// Output buffers of the batched sweep kernels (sweep.go), owned by
	// the state so the stateless search methods stay allocation-free.
	// Pure scratch: lazily grown, never read across calls, not part of
	// the state's value (Clone starts them empty, CopyFrom leaves them
	// alone).
	sweepFit []float64
	sweepA   []float64
	sweepB   []float64
	swapScan SwapScan

	// Scratch of SetScheduleDiff: changed job ids, changed machine ids and
	// the per-machine membership mark. Pure scratch like the sweep buffers
	// (lazily grown, empty between calls, not part of the state's value).
	diffJobs  []int32
	diffMachs []int32
	diffMark  []bool

	// scanExempt[m] excludes machine m from the cached critical-swap
	// sweep (SetScanExempt). Nil when no machine is exempt.
	scanExempt []bool

	// sampleIDs backs the batched sampled-partner draws of
	// SampledLMCTSBatch (localsearch): partner ids drawn upfront, sorted
	// machine-grouped, scanned through BeginSwapScanIDs.
	sampleIDs []int32

	// Region backing of the per-machine lists: machJobs/machCumC/machCumF
	// are carved out of these three arrays by ensureRegions, each machine
	// getting a capacity-capped region (three-index slices) sized
	// max(count, slack). A rebuild or CopyFrom re-carves in O(M) from the
	// same arrays — reallocating all three only when the total need
	// outgrows the backing — so per-machine count drift never triggers
	// per-machine reallocation. counts/regOff are the carving scratch and
	// jobKey the rebuild's sort-key cache (jobKey[j] = ETC[j][assign[j]],
	// so bucket sorting compares against a J-sized array instead of
	// gathering from a frontier-scale matrix).
	backing  []int32
	backCumC []float64
	backCumF []float64
	counts   []int32
	regOff   []int32
	jobKey   []float64

	// scanCache is the event-driven memo layer over the sweep kernels
	// (scancache.go), lazily sized by Scans. Like the sweep scratch it is
	// not part of the state's value: Clone and CopyFrom leave it cold and
	// the machine epochs make every stale entry self-invalidating.
	scanCache ScanCache
}

// NewState evaluates s against in. The schedule is copied; the State owns
// its copy and keeps it in sync under Move/Swap.
func NewState(in *etc.Instance, s Schedule) *State {
	if err := s.Validate(in); err != nil {
		panic(err)
	}
	st := &State{
		inst:       in,
		etc64:      in.ETC,
		assign:     s.Clone(),
		machJobs:   make([][]int32, in.Machs),
		machCumC:   make([][]float64, in.Machs),
		machCumF:   make([][]float64, in.Machs),
		slot:       make([]int32, in.Jobs),
		completion: make([]float64, in.Machs),
		machFlow:   make([]float64, in.Machs),
		machEpoch:  make([]uint64, in.Machs),
		dirtyIDs:   make([]int32, 0, in.Machs),
		dirtyMark:  make([]bool, in.Machs),
		counts:     make([]int32, in.Machs),
		regOff:     make([]int32, in.Machs+1),
	}
	st.top.init(in.Machs)
	st.rebuild()
	return st
}

// ensureRegions re-carves the per-machine lists out of the shared backing
// arrays: machine m gets an empty region of capacity max(counts[m], slack)
// where slack is twice the balanced share plus headroom (Move and insert
// then rarely outgrow a region; one that does reallocates on its own
// until the next carve reabsorbs it). The three backing arrays are
// reallocated only when the total need exceeds their capacity — count
// drift between machines re-slices in O(M) without allocating, which is
// what keeps SetSchedule allocation-free in the per-offspring hot loop at
// any instance scale.
func (st *State) ensureRegions(counts []int32) {
	machs := len(st.machJobs)
	slack := int32(2*len(st.assign)/machs + 8)
	off := st.regOff
	need := int32(0)
	for m, c := range counts {
		off[m] = need
		if c < slack {
			c = slack
		}
		need += c
	}
	off[machs] = need
	if cap(st.backing) < int(need) {
		st.backing = make([]int32, need)
		st.backCumC = make([]float64, need)
		st.backCumF = make([]float64, need)
	}
	b := st.backing[:need]
	bc := st.backCumC[:need]
	bf := st.backCumF[:need]
	for m := range st.machJobs {
		s, e := off[m], off[m+1]
		st.machJobs[m] = b[s:s:e]
		st.machCumC[m] = bc[s:s:e]
		st.machCumF[m] = bf[s:s:e]
	}
}

// rebuild recomputes all derived state from st.assign. Every machine's
// content changes, so every machine advances to a fresh epoch and the
// pending dirty set is cleared — the epoch bump subsumes it.
//
// The pass is bucket-by-machine over the shared backing: count each
// machine's jobs, carve regions, drop every job into its machine's bucket
// in ascending job order, then sort each bucket by (ETC, id) against the
// jobKey cache. (ETC, id) is a total order, so the sorted buckets — and
// every downstream prefix sum — are byte-identical to the historical
// per-machine SortFunc over At; the differential test in
// rebuild_test.go pins this, ETC ties included. The key cache matters at
// frontier scale: comparators touch a J-sized array with high locality
// instead of gather-loading a multi-hundred-MB matrix.
func (st *State) rebuild() {
	st.touchAll()
	counts := st.counts
	for m := range counts {
		counts[m] = 0
	}
	for _, m := range st.assign {
		counts[m]++
	}
	st.ensureRegions(counts)
	for j, m := range st.assign {
		st.machJobs[m] = append(st.machJobs[m], int32(j))
	}
	jobs := len(st.assign)
	if cap(st.jobKey) < jobs {
		st.jobKey = make([]float64, jobs)
	}
	key := st.jobKey[:jobs]
	if e := st.etc64; e != nil {
		machs := st.inst.Machs
		for j, m := range st.assign {
			key[j] = e[j*machs+m]
		}
	} else {
		for j, m := range st.assign {
			key[j] = st.inst.At(j, m)
		}
	}
	cmp := func(a, b int32) int {
		ka, kb := key[a], key[b]
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return int(a - b)
		}
	}
	st.flowtime = 0
	for m := range st.machJobs {
		bucket := st.machJobs[m]
		slices.SortFunc(bucket, cmp)
		for k, j := range bucket {
			st.slot[j] = int32(k)
		}
		st.refreshMachine(m)
		st.flowtime += st.machFlow[m]
	}
}

// less orders jobs on machine m by (ETC, job id); the id tiebreak makes the
// per-machine order — and therefore flowtime — deterministic.
func (st *State) less(a, b int32, m int) bool {
	var ea, eb float64
	if e := st.etc64; e != nil {
		machs := st.inst.Machs
		ea, eb = e[int(a)*machs+m], e[int(b)*machs+m]
	} else {
		ea, eb = st.inst.At(int(a), m), st.inst.At(int(b), m)
	}
	if ea != eb {
		return ea < eb
	}
	return a < b
}

// refreshMachine recomputes completion and flowtime of machine m from its
// (already sorted) job list, recording the per-slot partial sums the
// speculative probes reuse.
func (st *State) refreshMachine(m int) {
	jobs := st.machJobs[m]
	cumC := st.machCumC[m][:0]
	cumF := st.machCumF[m][:0]
	t := st.inst.Ready[m]
	flow := 0.0
	if e := st.etc64; e != nil {
		machs := st.inst.Machs
		for _, j := range jobs {
			t += e[int(j)*machs+m]
			flow += t
			cumC = append(cumC, t)
			cumF = append(cumF, flow)
		}
	} else {
		for _, j := range jobs {
			t += st.inst.At(int(j), m)
			flow += t
			cumC = append(cumC, t)
			cumF = append(cumF, flow)
		}
	}
	st.machCumC[m] = cumC
	st.machCumF[m] = cumF
	st.completion[m] = t
	st.machFlow[m] = flow
	st.top.update(m, t)
}

// touchAll advances every machine to a fresh epoch and clears the dirty
// set: the wholesale invalidation of rebuild, SetSchedule and CopyFrom.
func (st *State) touchAll() {
	st.epoch++
	for m := range st.machEpoch {
		st.machEpoch[m] = st.epoch
	}
	st.drainDirty()
}

// markDirty records machine m in the commit event log (idempotent per
// drain interval; the list is bounded by the machine count).
func (st *State) markDirty(m int) {
	if !st.dirtyMark[m] {
		st.dirtyMark[m] = true
		st.dirtyIDs = append(st.dirtyIDs, int32(m))
		dirtyAuditAdd(1)
	}
}

// drainDirty consumes the event log: clears every mark and empties the
// list. The machine epochs remain the validity truth, so draining never
// loses information — it only acknowledges that the observer (the scan
// cache, or a wholesale re-evaluation) has caught up.
func (st *State) drainDirty() {
	if len(st.dirtyIDs) == 0 {
		return
	}
	dirtyAuditAdd(-int64(len(st.dirtyIDs)))
	for _, m := range st.dirtyIDs {
		st.dirtyMark[m] = false
	}
	st.dirtyIDs = st.dirtyIDs[:0]
}

// noteCommit is the Move/Swap commit hook: machines m1 and m2 changed
// content (they advance to a fresh epoch and enter the dirty set), and if
// the tournament tree's root — the critical machine — moved across the
// commit, the old and new critical machines are marked too, so an
// event-driven consumer sees every machine whose role in the next scan
// changed, not just the two whose lists did.
func (st *State) noteCommit(m1, m2, critBefore int) {
	st.epoch++
	st.machEpoch[m1] = st.epoch
	st.machEpoch[m2] = st.epoch
	st.markDirty(m1)
	st.markDirty(m2)
	if critAfter := st.top.argmax(); critAfter != critBefore {
		st.markDirty(critBefore)
		st.markDirty(critAfter)
	}
}

// SyncScans drains the pending dirty set. Search loops that commit moves
// call it before handing the state back (to a pool, or to their caller),
// so a state never carries pending invalidation events out of a run —
// the leak invariant the dirty-set audit (DirtyAuditStart) checks. The
// scan cache drains on every query, so this is only needed when the last
// action was a commit.
func (st *State) SyncScans() { st.drainDirty() }

// PendingDirty reports how many machines are in the commit event log —
// zero whenever the scan cache (or SyncScans) has caught up. White-box
// tests use it to pin the drain discipline.
func (st *State) PendingDirty() int { return len(st.dirtyIDs) }

// DirtyMachines returns the machines currently in the commit event log.
// Callers must not mutate the returned slice; it is valid until the next
// commit or drain.
func (st *State) DirtyMachines() []int32 { return st.dirtyIDs }

// SetScanExempt excludes machine m from (or re-admits it to) the cached
// critical-swap sweep: BestCriticalSwap never scans an exempt machine's
// jobs and never proposes a swap involving them. The caller asserts that
// no such swap can ever be accepted anyway — the use case is a host
// keeping placeholder jobs on a dedicated machine whose swap candidates
// are all blocked by construction (huge ETC entries), as the online
// scheduler daemon does with its parking column. Exempting a machine
// whose jobs could win an improving swap silently narrows the search
// neighborhood; the bit-identity contract then reads "equals a full
// rescan over the non-exempt machines".
//
// The flag is part of the state's search configuration, not its value:
// Clone carries it over, CopyFrom leaves the destination's flags alone,
// and no epoch moves — cached entries stay valid, they are simply
// skipped (and re-validated by epoch as usual if re-admitted).
func (st *State) SetScanExempt(m int, exempt bool) {
	if st.scanExempt == nil {
		if !exempt {
			return
		}
		st.scanExempt = make([]bool, len(st.machJobs))
	}
	st.scanExempt[m] = exempt
}

// Epoch returns the state's mutation counter; MachEpoch the epoch of
// machine m's last content change. A cached per-machine result computed
// at MachEpoch(m) stays exact while that value is unchanged.
func (st *State) Epoch() uint64          { return st.epoch }
func (st *State) MachEpoch(m int) uint64 { return st.machEpoch[m] }

// Instance returns the instance this state evaluates against.
func (st *State) Instance() *etc.Instance { return st.inst }

// Assign returns the machine currently running job j.
func (st *State) Assign(j int) int { return st.assign[j] }

// Schedule returns a copy of the current schedule.
func (st *State) Schedule() Schedule { return st.assign.Clone() }

// ScheduleView returns the underlying schedule without copying. Callers
// must not mutate it; use Move/Swap instead.
func (st *State) ScheduleView() Schedule { return st.assign }

// Completion returns the completion time of machine m.
func (st *State) Completion(m int) float64 { return st.completion[m] }

// JobsOn returns the jobs of machine m in SPT order. Callers must not
// mutate the returned slice.
func (st *State) JobsOn(m int) []int32 { return st.machJobs[m] }

// Makespan returns the finishing time of the latest machine. It is an
// O(1) read of the completion tournament tree (never below 0, matching
// the historical linear scan that started its maximum at zero).
func (st *State) Makespan() float64 {
	if m := st.top.max(); m > 0 {
		return m
	}
	return 0
}

// MakespanMachine returns the index of the machine attaining the
// makespan, in O(1). Tie-breaking is a documented contract: when several
// machines share the maximal completion time, the lowest machine index
// wins. LMCTS derives its critical machine from this, so the choice is
// pinned by a regression test (TestMakespanMachineTieBreak) — an
// implementation that returned any other tied machine would silently
// change which swaps the tuned local search considers.
func (st *State) MakespanMachine() int {
	return st.top.argmax()
}

// MakespanExcluding returns the largest completion time among machines
// other than m, or -Inf when m is the only machine — the query behind
// the speculative fitness probes. O(log M).
func (st *State) MakespanExcluding(m int) float64 {
	return st.top.maxExcluding(m)
}

// Flowtime returns the sum of job finishing times.
func (st *State) Flowtime() float64 { return st.flowtime }

// MeanFlowtime returns flowtime divided by the number of machines, the
// magnitude-normalised quantity the paper's fitness uses.
func (st *State) MeanFlowtime() float64 {
	return st.flowtime / float64(st.inst.Machs)
}

// remove deletes job j from machine m's list; the caller refreshes. The
// job's index is read from the slot table in O(1) instead of scanning the
// list; only the slots of the jobs shifted down need repair.
func (st *State) remove(j int, m int) {
	jobs := st.machJobs[m]
	k := int(st.slot[j])
	if k >= len(jobs) || jobs[k] != int32(j) {
		panic(fmt.Sprintf("schedule: job %d not on machine %d", j, m))
	}
	for ; k < len(jobs)-1; k++ {
		v := jobs[k+1]
		jobs[k] = v
		st.slot[v] = int32(k)
	}
	st.machJobs[m] = jobs[:len(jobs)-1]
}

// insert places job j into machine m's list keeping SPT order. The
// position comes from insertPos (probe.go) — the same binary search the
// speculative probes replay, so commit and probe can never disagree on
// placement.
func (st *State) insert(j int, m int) {
	jobs := st.machJobs[m]
	lo := st.insertPos(m, int32(j))
	jobs = append(jobs, 0)
	for i := len(jobs) - 1; i > lo; i-- {
		v := jobs[i-1]
		jobs[i] = v
		st.slot[v] = int32(i)
	}
	jobs[lo] = int32(j)
	st.slot[j] = int32(lo)
	st.machJobs[m] = jobs
}

// Move reassigns job j to machine to, updating all derived quantities.
// Moving a job to its current machine is a no-op.
func (st *State) Move(j, to int) {
	from := st.assign[j]
	if from == to {
		return
	}
	crit := st.top.argmax()
	st.flowtime -= st.machFlow[from] + st.machFlow[to]
	st.remove(j, from)
	st.insert(j, to)
	st.assign[j] = to
	st.refreshMachine(from)
	st.refreshMachine(to)
	st.flowtime += st.machFlow[from] + st.machFlow[to]
	st.noteCommit(from, to, crit)
}

// Swap exchanges the machines of jobs a and b. Swapping jobs on the same
// machine is a no-op.
func (st *State) Swap(a, b int) {
	ma, mb := st.assign[a], st.assign[b]
	if ma == mb {
		return
	}
	crit := st.top.argmax()
	st.flowtime -= st.machFlow[ma] + st.machFlow[mb]
	st.remove(a, ma)
	st.remove(b, mb)
	st.insert(a, mb)
	st.insert(b, ma)
	st.assign[a], st.assign[b] = mb, ma
	st.refreshMachine(ma)
	st.refreshMachine(mb)
	st.flowtime += st.machFlow[ma] + st.machFlow[mb]
	st.noteCommit(ma, mb, crit)
}

// CompletionAfterMove returns, in O(1), the completion times the source and
// target machines would have if job j moved to machine to. It does not
// modify the state.
func (st *State) CompletionAfterMove(j, to int) (fromC, toC float64) {
	from := st.assign[j]
	e := st.inst.At(j, from)
	if from == to {
		return st.completion[from], st.completion[to]
	}
	return st.completion[from] - e, st.completion[to] + st.inst.At(j, to)
}

// CompletionAfterSwap returns, in O(1), the completion times machines of a
// and b would have after swapping the two jobs. Requires the jobs to be on
// different machines.
func (st *State) CompletionAfterSwap(a, b int) (aC, bC float64) {
	ma, mb := st.assign[a], st.assign[b]
	ea, eb := st.inst.At(a, ma), st.inst.At(b, mb)
	return st.completion[ma] - ea + st.inst.At(b, ma),
		st.completion[mb] - eb + st.inst.At(a, mb)
}

// SetSchedule replaces the whole schedule and re-evaluates, reusing the
// state's buffers. It is the allocation-light way to re-point a scratch
// State at a new candidate solution in hot loops.
func (st *State) SetSchedule(s Schedule) {
	if err := s.Validate(st.inst); err != nil {
		panic(err)
	}
	st.assign.CopyFrom(s)
	st.rebuild()
}

// SetScheduleDiff replaces the schedule like SetSchedule but by diffing s
// against the current assignment: only jobs whose machine changed are
// re-listed, only machines whose job sets changed are refreshed, and only
// those machines advance to a fresh epoch and enter the dirty set (plus
// the old and new critical machine when the tournament root moves,
// mirroring the Move/Swap commit hook). Every cached scan result of an
// untouched machine therefore stays valid — the warm-start admission path
// of the online daemon and cache-aware island migration both depend on
// this, where SetSchedule's wholesale epoch bump would cold-start the
// event-driven scan cache on every batch commit.
//
// The resulting value state is bit-identical to SetSchedule(s): the
// per-machine job lists are (ETC, id)-sorted sets, so they are order
// independent of how the diff is applied; refreshMachine resums each
// changed machine with the exact arithmetic rebuild uses; and the state
// flowtime is re-folded canonically (Σ machFlow in ascending machine
// order — rebuild's own accumulation order) rather than diff-adjusted,
// which keeps the fitness bits equal to a from-scratch evaluation. Only
// the epoch/dirty bookkeeping differs, by design. Pinned by the
// differential tests in statediff_test.go.
func (st *State) SetScheduleDiff(s Schedule) {
	if err := s.Validate(st.inst); err != nil {
		panic(err)
	}
	if st.diffMark == nil {
		st.diffMark = make([]bool, len(st.machJobs))
	}
	st.diffJobs = st.diffJobs[:0]
	st.diffMachs = st.diffMachs[:0]
	for j, m := range s {
		from := st.assign[j]
		if from == m {
			continue
		}
		st.diffJobs = append(st.diffJobs, int32(j))
		if !st.diffMark[from] {
			st.diffMark[from] = true
			st.diffMachs = append(st.diffMachs, int32(from))
		}
		if !st.diffMark[m] {
			st.diffMark[m] = true
			st.diffMachs = append(st.diffMachs, int32(m))
		}
	}
	if len(st.diffJobs) == 0 {
		return
	}
	crit := st.top.argmax()
	// Remove in descending job order: a removal shifts only the list tail
	// behind it, so draining a long (e.g. parking) machine back to front
	// touches each surviving element at most once.
	for i := len(st.diffJobs) - 1; i >= 0; i-- {
		j := st.diffJobs[i]
		st.remove(int(j), st.assign[j])
	}
	for _, j := range st.diffJobs {
		to := s[j]
		st.assign[j] = to
		st.insert(int(j), to)
	}
	st.epoch++
	for _, m := range st.diffMachs {
		st.diffMark[m] = false
		st.machEpoch[m] = st.epoch
		st.markDirty(int(m))
		st.refreshMachine(int(m))
	}
	st.flowtime = 0
	for m := range st.machFlow {
		st.flowtime += st.machFlow[m]
	}
	if critAfter := st.top.argmax(); critAfter != crit {
		st.markDirty(crit)
		st.markDirty(critAfter)
	}
}

// InvalidateMachine advances machine m to a fresh epoch and marks it
// dirty without touching its contents. Callers that mutate inputs the
// state cannot observe — the online daemon rewrites a machine's ETC
// column when grid membership changes — use it to force every cached
// scan result involving the machine to be recomputed on the next query.
// The machine must hold no jobs whose list order the rewritten column
// would change; the daemon guarantees that by only rewriting columns of
// empty (joined or vacated) machines.
func (st *State) InvalidateMachine(m int) {
	st.epoch++
	st.machEpoch[m] = st.epoch
	st.markDirty(m)
}

// RefreshFlowtime re-folds the state flowtime canonically: Σ machFlow in
// ascending machine order, the exact accumulation rebuild performs. Move
// and Swap maintain flowtime with a subtract-then-add update whose float
// bits drift from the canonical fold over long commit sequences (the
// value is exact to rounding either way); a checkpointing caller — the
// daemon canonicalises at every event boundary — refolds so that a state
// restored from a snapshot (which rebuilds, and therefore folds) is
// bit-identical to the live state it was taken from. The per-machine
// flows are refreshMachine products and need no refold. The state epoch
// advances so cached fitness contexts recapture; machine contents are
// untouched, so no machine epoch moves and no dirty mark is added.
func (st *State) RefreshFlowtime() {
	st.flowtime = 0
	for m := range st.machFlow {
		st.flowtime += st.machFlow[m]
	}
	st.epoch++
}

// copyListsFrom re-carves st's per-machine regions to src's counts and
// copies src's lists and prefix sums into them. The regions come out of
// ensureRegions with capacity ≥ count, so the appends never reallocate:
// list copying costs three bulk memmoves' worth of element copies and at
// most one backing growth, independent of the machine count.
func (st *State) copyListsFrom(src *State) {
	counts := st.counts
	for m := range counts {
		counts[m] = int32(len(src.machJobs[m]))
	}
	st.ensureRegions(counts)
	for m := range st.machJobs {
		st.machJobs[m] = append(st.machJobs[m], src.machJobs[m]...)
		st.machCumC[m] = append(st.machCumC[m], src.machCumC[m]...)
		st.machCumF[m] = append(st.machCumF[m], src.machCumF[m]...)
	}
}

// Clone returns an independent copy of the state. The per-machine lists
// land in a freshly carved region backing — a handful of allocations
// total, not three per machine.
func (st *State) Clone() *State {
	machs := len(st.machJobs)
	cp := &State{
		inst:       st.inst,
		etc64:      st.etc64,
		assign:     st.assign.Clone(),
		machJobs:   make([][]int32, machs),
		machCumC:   make([][]float64, machs),
		machCumF:   make([][]float64, machs),
		slot:       append([]int32(nil), st.slot...),
		completion: append([]float64(nil), st.completion...),
		machFlow:   append([]float64(nil), st.machFlow...),
		flowtime:   st.flowtime,
		top:        st.top.clone(),
		epoch:      st.epoch,
		machEpoch:  append([]uint64(nil), st.machEpoch...),
		dirtyIDs:   make([]int32, 0, machs),
		dirtyMark:  make([]bool, machs),
		counts:     make([]int32, machs),
		regOff:     make([]int32, machs+1),
	}
	if st.scanExempt != nil {
		cp.scanExempt = append([]bool(nil), st.scanExempt...)
	}
	cp.copyListsFrom(st)
	return cp
}

// CopyFrom makes st an exact copy of src (same instance), reusing buffers.
func (st *State) CopyFrom(src *State) {
	if st.inst != src.inst {
		panic("schedule: CopyFrom across instances")
	}
	st.touchAll()
	st.assign.CopyFrom(src.assign)
	copy(st.slot, src.slot)
	copy(st.completion, src.completion)
	copy(st.machFlow, src.machFlow)
	st.flowtime = src.flowtime
	st.top.copyFrom(&src.top)
	st.copyListsFrom(src)
}
