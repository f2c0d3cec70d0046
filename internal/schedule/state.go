package schedule

import (
	"fmt"
	"slices"
	"sync/atomic"

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
// and the machine's flowtime contribution. Move, Swap and SetScheduleDiff
// update these in O(suffix after the edited slot); the machine
// completions additionally feed an indexed tournament tree (maxtree.go)
// maintained in O(log M) per machine refresh, which makes Makespan and MakespanMachine O(1) reads and answers the
// "max completion excluding machine(s)" query behind the speculative
// FitnessAfterMove / FitnessAfterSwap probes (probe.go).
type State struct {
	inst *etc.Instance
	// matrix is inst.ETC, hoisted at construction: the per-element replay
	// loops (probe.go, refreshFrom, rebuild's key fill) take machine m's
	// column from it once (col) and index that by job. The matrix is
	// machine-major, so a replay over m's job list reads one contiguous
	// column.
	matrix   []float64
	assign   Schedule
	machJobs [][]int32 // per machine, job ids sorted by (ETC, id)
	slot     []int32   // slot[j] = index of job j within machJobs[assign[j]]
	// machCumC[m][k] / machCumF[m][k] are the running completion and
	// flowtime of machine m after its k-th job — refreshFrom's partial
	// sums, recorded as they are produced. Speculative probes and commits
	// alike reuse the prefix before the first edited slot verbatim (the
	// bits are refreshFrom's own) and only resum the suffix: a probe halves
	// its work on average, and a commit that appends at the tail of a long
	// list (the daemon's parking machine) costs O(1).
	machCumC   [][]float64
	machCumF   [][]float64
	completion []float64
	machFlow   []float64
	flowtime   float64
	top        maxTree // argmax over completion, O(log M) maintenance

	// Change tracking. epoch counts the state's committed mutations; the
	// scan cache's move-side probe context (scancache.go) is valid exactly
	// while it is unchanged, and every commit, CopyFrom and rebuild
	// advances it. machEpoch[m] is machine m's content version: every
	// change to the machine's list, prefix sums, completion or flow —
	// each refreshFrom, so Move, Swap, SetScheduleDiff and rebuild — and
	// each InvalidateMachine draws a fresh one from the process-wide
	// counter (nextVersion), and CopyFrom carries the source's.
	// Equal versions therefore mean equal machine contents, across every
	// State of one instance: CopyFrom copies only the machines whose
	// versions differ, and the daemon's state digest re-hashes only the
	// machines whose version moved since it last folded them.
	epoch     uint64
	machEpoch []uint64

	// Output buffers of the batched sweep kernels (sweep.go), owned by
	// the state so the stateless search methods stay allocation-free.
	// Pure scratch: lazily grown, never read across calls, not part of
	// the state's value (CopyFrom leaves them alone).
	sweepFit []float64
	// scanCa holds the critical side of every pair of the critical-swap
	// query (BestCriticalSwap), scanU the partner column of the partner
	// machine it is scanning (bestOn).
	scanCa []float64
	scanU  []float64

	// Scratch of SetScheduleDiff: changed job ids, changed machine ids and
	// diffLo[m], the lowest slot edited on machine m (-1 while m is
	// unchanged, which doubles as the membership mark). Pure scratch like
	// the sweep buffers (lazily grown, reset between calls, not part of
	// the state's value).
	diffJobs  []int32
	diffMachs []int32
	diffLo    []int32

	// scanExempt[m] excludes machine m from the cached critical-swap
	// sweep (SetScanExempt). Nil when no machine is exempt.
	scanExempt []bool

	// Region backing of the per-machine lists: machJobs/machCumC/machCumF
	// are carved out of these three arrays by ensureRegions, each machine
	// getting a capacity-capped region (three-index slices) sized
	// max(count, slack). A rebuild re-carves in O(M) from the same arrays
	// — reallocating all three only when the total need outgrows the
	// backing — so per-machine count drift never triggers per-machine
	// reallocation. CopyFrom carves only a blank State; otherwise it copies
	// each list it needs into the machine's existing region, and a list
	// that outgrows its region reallocates that machine alone until the
	// next rebuild re-carves. counts/regOff are the carving scratch and
	// jobKey the rebuild's sort-key cache (jobKey[j] = ETC[j][assign[j]],
	// so bucket sorting compares against a J-sized array instead of
	// gathering from a frontier-scale matrix).
	backing  []int32
	backCumC []float64
	backCumF []float64
	counts   []int32
	regOff   []int32
	jobKey   []float64

	// scanCache is the query layer over the sweep kernels
	// (scancache.go), bound by Scans. Like the sweep scratch it is not
	// part of the state's value: the epoch, which CopyFrom advances, makes
	// a stale move context self-invalidating.
	scanCache ScanCache
}

// NewState evaluates s against in. The schedule is copied; the State owns
// its copy and keeps it in sync under Move/Swap.
func NewState(in *etc.Instance, s Schedule) *State {
	if err := s.Validate(in); err != nil {
		panic(err)
	}
	st := NewBlankState(in)
	st.alloc()
	copy(st.assign, s)
	st.rebuild()
	return st
}

// NewBlankState returns a State bound to in that holds no schedule:
// nothing is allocated or evaluated until its first SetSchedule,
// CopyFrom or SetScheduleFrom, which size its tables and take their bulk
// path. Until then the State is write-only. Every read of its
// evaluation panics on the empty tables (ScheduleView is nil), and so do
// Move, Swap and SetScheduleDiff, which edit an evaluation that does not
// exist yet. evalpool hands out fresh scratches this way, since every
// engine overwrites a scratch before it reads one.
func NewBlankState(in *etc.Instance) *State {
	return &State{inst: in, matrix: in.ETC}
}

// col returns machine m's ETC column, indexed by job.
func (st *State) col(m int) []float64 {
	n := st.inst.Jobs
	return st.matrix[m*n : (m+1)*n]
}

// alloc sizes the tables of a blank State for its instance.
func (st *State) alloc() {
	jobs, machs := st.inst.Jobs, st.inst.Machs
	st.assign = make(Schedule, jobs)
	st.machJobs = make([][]int32, machs)
	st.machCumC = make([][]float64, machs)
	st.machCumF = make([][]float64, machs)
	st.slot = make([]int32, jobs)
	st.completion = make([]float64, machs)
	st.machFlow = make([]float64, machs)
	st.machEpoch = make([]uint64, machs)
	st.counts = make([]int32, machs)
	st.regOff = make([]int32, machs+1)
	st.top.init(machs)
}

// ensureRegions re-carves the per-machine lists out of the shared backing
// arrays: machine m gets an empty region of capacity
// max(counts[m] + 8, slack) where slack is twice the balanced share plus
// headroom (Move and insert then rarely outgrow a region, even one
// copied from a machine holding more than the slack; one that does
// reallocates on its own until the next carve reabsorbs it). The three
// backing arrays are reallocated only when the total need exceeds their
// capacity, and then geometrically (grown) — count drift between
// machines re-slices in O(M) without allocating, which is what keeps
// SetSchedule allocation-free in the per-offspring hot loop at any
// instance scale.
func (st *State) ensureRegions(counts []int32) {
	machs := len(st.machJobs)
	slack := int32(2*len(st.assign)/machs + 8)
	off := st.regOff
	need := int32(0)
	for m, c := range counts {
		off[m] = need
		need += max(c+8, slack)
	}
	off[machs] = need
	st.backing = grown(st.backing, int(need))
	st.backCumC = grown(st.backCumC, int(need))
	st.backCumF = grown(st.backCumF, int(need))
	b, bc, bf := st.backing, st.backCumC, st.backCumF
	for m := range st.machJobs {
		s, e := off[m], off[m+1]
		st.machJobs[m] = b[s:s:e]
		st.machCumC[m] = bc[s:s:e]
		st.machCumF[m] = bf[s:s:e]
	}
}

// rebuild recomputes all derived state from st.assign. Every machine is
// refreshed, so every machine draws a fresh version.
//
// The pass is bucket-by-machine over the shared backing: count each
// machine's jobs, carve regions, drop every job into its machine's bucket
// in ascending job order, fill the jobKey cache bucket by bucket (each
// bucket reads its machine's column in ascending job order), then sort
// each bucket by (ETC, id) against the jobKey cache. (ETC, id) is a
// total order, so the sorted buckets — and every downstream prefix
// sum — are byte-identical to the historical per-machine SortFunc over
// At; the differential test in rebuild_test.go pins this, ETC ties
// included. The key cache matters at frontier scale: comparators touch a
// J-sized array with high locality instead of gather-loading a
// multi-hundred-MB matrix.
func (st *State) rebuild() {
	st.epoch++
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
	for m, bucket := range st.machJobs {
		col := st.col(m)
		for _, j := range bucket {
			key[j] = col[j]
		}
	}
	st.flowtime = 0
	for m := range st.machJobs {
		bucket := st.machJobs[m]
		sortByKey(bucket, key)
		for k, j := range bucket {
			st.slot[j] = int32(k)
		}
		st.refreshFrom(m, 0)
		st.flowtime += st.machFlow[m]
	}
}

// sortByKey sorts jobs, given in ascending id order, by (key[j], j).
// Lists of up to 64 jobs, the common case (512×16 schedules average 32 a
// machine), take an insertion sort: it beats slices.SortFunc's indirect
// comparisons at that length and, being stable on the id-ascending
// input, supplies the id tiebreak itself. Longer lists take
// slices.SortFunc with the tiebreak spelled out. (key, id) is a total
// order, so both produce the same list.
func sortByKey(jobs []int32, key []float64) {
	if len(jobs) > 64 {
		slices.SortFunc(jobs, func(a, b int32) int {
			ka, kb := key[a], key[b]
			switch {
			case ka < kb:
				return -1
			case ka > kb:
				return 1
			default:
				return int(a - b)
			}
		})
		return
	}
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		kj := key[j]
		h := i
		for ; h > 0 && key[jobs[h-1]] > kj; h-- {
			jobs[h] = jobs[h-1]
		}
		jobs[h] = j
	}
}

// less orders jobs on machine m by (ETC, job id); the id tiebreak makes the
// per-machine order — and therefore flowtime — deterministic.
func (st *State) less(a, b int32, m int) bool {
	col := st.col(m)
	if ea, eb := col[a], col[b]; ea != eb {
		return ea < eb
	}
	return a < b
}

// refreshFrom recomputes completion and flowtime of machine m from its
// (already sorted) job list, recording the per-slot partial sums that
// the speculative probes and later commits reuse. It resumes at slot k:
// the caller asserts that the first k jobs — and their ETC entries — are
// unchanged since the partial sums were recorded, so the recorded prefix
// is exactly what resumming it would produce and only the suffix is
// resummed. k = 0 is the full summation; the loop is the same either way,
// so a suffix refresh is bit-identical to a full one. The machine draws a
// fresh version.
func (st *State) refreshFrom(m, k int) {
	jobs := st.machJobs[m]
	cumC := st.machCumC[m][:k]
	cumF := st.machCumF[m][:k]
	t, flow := st.prefix(m, k)
	col := st.col(m)
	for _, j := range jobs[k:] {
		t += col[j]
		flow += t
		cumC = append(cumC, t)
		cumF = append(cumF, flow)
	}
	st.machCumC[m] = cumC
	st.machCumF[m] = cumF
	st.completion[m] = t
	st.machFlow[m] = flow
	st.top.update(m, t)
	st.machEpoch[m] = nextVersion()
}

// versions is the process-wide source of machine content versions: one
// counter for every State, so no two States ever draw the same version.
var versions atomic.Uint64

// nextVersion hands out a machine content version no State has held
// before. Versions start at 1, so the zero a blank State's tables start
// with matches no evaluated machine.
func nextVersion() uint64 { return versions.Add(1) }

// SetScanExempt excludes machine m from (or re-admits it to) the
// critical-swap scan: BestCriticalSwap never scans an exempt machine's
// jobs and never proposes a swap involving them. The use case is a host
// keeping placeholder jobs on a dedicated machine the search must leave
// alone, as the online scheduler daemon does with its parking column:
// the placeholders' cells on the other machines carry no real costs, so
// the exemption is what keeps a swap off them. Exempting a machine
// whose jobs could win an improving swap narrows the search
// neighborhood; the bit-identity contract then reads "equals a full
// rescan over the non-exempt machines".
//
// The flag is part of the state's search configuration, not its value:
// CopyFrom leaves the destination's flags alone, and no epoch or version
// moves — the flag only narrows the scan.
func (st *State) SetScanExempt(m int, exempt bool) {
	if st.scanExempt == nil {
		if !exempt {
			return
		}
		st.scanExempt = make([]bool, len(st.machJobs))
	}
	st.scanExempt[m] = exempt
}

// Epoch returns the state's mutation counter, which every commit,
// CopyFrom and rebuild advances. MachEpoch returns machine m's content
// version: it moves whenever the machine's contents change (or
// InvalidateMachine is called), it is never handed out twice, and
// CopyFrom carries it over from the source, so two machines at the same
// index holding equal versions hold equal contents — also in two
// different States of one instance. A cached per-machine result
// computed at MachEpoch(m) stays exact while that value is unchanged.
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
// Each machine is resummed from its edited slot: from at j's old slot, to
// at j's new one. Moving a job to its current machine is a no-op.
func (st *State) Move(j, to int) {
	from := st.assign[j]
	if from == to {
		return
	}
	st.flowtime -= st.machFlow[from] + st.machFlow[to]
	k := int(st.slot[j])
	st.remove(j, from)
	st.insert(j, to)
	st.assign[j] = to
	st.refreshFrom(from, k)
	st.refreshFrom(to, int(st.slot[j]))
	st.flowtime += st.machFlow[from] + st.machFlow[to]
	st.epoch++
}

// Swap exchanges the machines of jobs a and b. Each machine is resummed
// from the lower of its removed and inserted slots. Swapping jobs on the
// same machine is a no-op.
func (st *State) Swap(a, b int) {
	ma, mb := st.assign[a], st.assign[b]
	if ma == mb {
		return
	}
	st.flowtime -= st.machFlow[ma] + st.machFlow[mb]
	ka, kb := int(st.slot[a]), int(st.slot[b])
	st.remove(a, ma)
	st.remove(b, mb)
	st.insert(a, mb)
	st.insert(b, ma)
	st.assign[a], st.assign[b] = mb, ma
	st.refreshFrom(ma, min(ka, int(st.slot[b])))
	st.refreshFrom(mb, min(kb, int(st.slot[a])))
	st.flowtime += st.machFlow[ma] + st.machFlow[mb]
	st.epoch++
}

// SetSchedule replaces the whole schedule and re-evaluates, reusing the
// state's buffers (a blank State sizes them first). It is the
// allocation-light way to re-point a scratch State at a new candidate
// solution in hot loops.
func (st *State) SetSchedule(s Schedule) {
	if err := s.Validate(st.inst); err != nil {
		panic(err)
	}
	if st.assign == nil {
		st.alloc()
	}
	st.assign.CopyFrom(s)
	st.rebuild()
}

// SetScheduleDiff replaces the schedule like SetSchedule but by diffing s
// against the current assignment: only jobs whose machine changed are
// re-listed, only machines whose job sets changed are refreshed — each
// from the lowest slot the diff edited on it — and only those machines
// draw a fresh version, so the online daemon's digest re-hashes only the
// machines a batch commit touched, where SetSchedule's wholesale refresh
// would re-hash every machine.
//
// The resulting value state is bit-identical to SetSchedule(s): the
// per-machine job lists are (ETC, id)-sorted sets, so they are order
// independent of how the diff is applied; refreshFrom resums each
// changed machine with the exact arithmetic rebuild uses (every edit sits
// at or after diffLo, so the prefix before it is rebuild's too); and the
// state flowtime is re-folded canonically (Σ machFlow in ascending machine
// order — rebuild's own accumulation order) rather than diff-adjusted,
// which keeps the fitness bits equal to a from-scratch evaluation. Only
// the version bookkeeping differs, by design. An empty diff changes
// nothing, the flowtime bits included (SetScheduleFrom refolds them).
// Pinned by the differential tests in statediff_test.go and
// rebuild_test.go. An invalid s panics with Validate's error, like
// SetSchedule; only the length and the changed entries need checking,
// since an unchanged entry equals the current, valid one.
func (st *State) SetScheduleDiff(s Schedule) {
	if len(s) != len(st.assign) {
		panic(s.Validate(st.inst))
	}
	lo := st.diffLo
	if lo == nil {
		lo = make([]int32, len(st.machJobs))
		for m := range lo {
			lo[m] = -1
		}
		st.diffLo = lo
	}
	st.diffJobs = st.diffJobs[:0]
	st.diffMachs = st.diffMachs[:0]
	assign := st.assign[:len(s)]
	for j, m := range s {
		from := assign[j]
		if from == m {
			continue
		}
		if uint(m) >= uint(len(lo)) {
			for _, d := range st.diffMachs {
				lo[d] = -1 // leave the scratch clean for a recovered caller
			}
			panic(s.Validate(st.inst))
		}
		st.diffJobs = append(st.diffJobs, int32(j))
		// A machine's list length bounds its first edit: a removal sits
		// below it and the first insertion at or below it.
		if lo[from] < 0 {
			lo[from] = int32(len(st.machJobs[from]))
			st.diffMachs = append(st.diffMachs, int32(from))
		}
		if lo[m] < 0 {
			lo[m] = int32(len(st.machJobs[m]))
			st.diffMachs = append(st.diffMachs, int32(m))
		}
	}
	if len(st.diffJobs) == 0 {
		return
	}
	// Remove in descending job order: a removal shifts only the list tail
	// behind it, so draining a long (e.g. parking) machine back to front
	// touches each surviving element at most once. Every edit leaves the
	// slots below its own untouched, so the slots below the minimum edited
	// slot keep their jobs — and their recorded partial sums — throughout.
	for i := len(st.diffJobs) - 1; i >= 0; i-- {
		j := st.diffJobs[i]
		from := st.assign[j]
		lo[from] = min(lo[from], st.slot[j])
		st.remove(int(j), from)
	}
	for _, j := range st.diffJobs {
		to := s[j]
		st.assign[j] = to
		st.insert(int(j), to)
		lo[to] = min(lo[to], st.slot[j])
	}
	st.epoch++
	for _, m := range st.diffMachs {
		st.refreshFrom(int(m), int(lo[m]))
		lo[m] = -1
	}
	st.flowtime = 0
	for m := range st.machFlow {
		st.flowtime += st.machFlow[m]
	}
}

// SetScheduleFrom replaces the schedule with s, a schedule derived from
// base's — the cMA passes a crossover child and its first parent. It
// copies base's evaluation and re-lists only the jobs whose machine
// differs (SetScheduleDiff), which costs less than SetSchedule's sort of
// every list when few jobs differ. The value state is bit-identical to
// SetSchedule(s): the flowtime is refolded even when nothing differs,
// since base's bits may come from incremental Move/Swap updates. The
// machines the diff left alone keep base's versions; the others draw
// fresh ones.
func (st *State) SetScheduleFrom(base *State, s Schedule) {
	st.CopyFrom(base)
	st.SetScheduleDiff(s)
	st.RefreshFlowtime()
}

// InvalidateMachine gives machine m a fresh version without touching
// its contents. Callers that mutate inputs the
// state cannot observe — the online daemon rewrites a machine's ETC
// column when grid membership changes — use it to force every view keyed
// on the versions and the epoch (the daemon's digest of the machine, the
// scan cache's move-probe context, the next CopyFrom onto or from this
// State) to be recomputed or recopied.
// The machine must hold no jobs whose ETC entries the rewrite changes:
// their list order and the recorded partial sums that later commits
// resume from would go stale. The daemon guarantees that by only
// rewriting columns of empty (joined or vacated) machines.
func (st *State) InvalidateMachine(m int) {
	st.epoch++
	st.machEpoch[m] = nextVersion()
}

// RefreshFlowtime re-folds the state flowtime canonically: Σ machFlow in
// ascending machine order, the exact accumulation rebuild performs. Move
// and Swap maintain flowtime with a subtract-then-add update whose float
// bits drift from the canonical fold over long commit sequences (the
// value is exact to rounding either way); a checkpointing caller — the
// daemon canonicalises at every event boundary — refolds so that a state
// restored from a snapshot (which rebuilds, and therefore folds) is
// bit-identical to the live state it was taken from. The per-machine
// flows are refreshFrom products and need no refold. The state epoch
// advances so cached fitness contexts recapture; machine contents are
// untouched, so no machine version moves.
func (st *State) RefreshFlowtime() {
	st.flowtime = st.FoldedFlowtime()
	st.epoch++
}

// FoldedFlowtime returns the canonical fold RefreshFlowtime stores, the
// flowtime a fresh evaluation of the schedule reports bit for bit,
// without touching the state: the running accumulator Flowtime reads,
// and every probe built on it, keep their bits.
func (st *State) FoldedFlowtime() float64 {
	f := 0.0
	for _, v := range st.machFlow {
		f += v
	}
	return f
}

// CopyFrom makes st an exact copy of src (same instance), reusing
// buffers, and carries src's machine versions. The per-job tables, the
// completions, the flows and the tournament tree are bulk copies. A
// machine's list and prefix sums are copied only when st holds a
// different version of it: equal versions mean equal contents, so under
// the cMA's takeover, where a scratch and its next source share most
// machines, most lists are already in place. Each copy goes into the
// machine's existing region; one that outgrows it reallocates that
// machine alone, to its length plus a carve's headroom. A blank State
// sizes its tables and carves its regions from src's counts first (its
// zero versions match no machine).
func (st *State) CopyFrom(src *State) {
	if st.inst != src.inst {
		panic("schedule: CopyFrom across instances")
	}
	if st.assign == nil {
		st.alloc()
		counts := st.counts
		for m := range counts {
			counts[m] = int32(len(src.machJobs[m]))
		}
		st.ensureRegions(counts)
	}
	st.epoch++
	st.assign.CopyFrom(src.assign)
	copy(st.slot, src.slot)
	copy(st.completion, src.completion)
	copy(st.machFlow, src.machFlow)
	st.flowtime = src.flowtime
	st.top.copyFrom(&src.top)
	for m, v := range src.machEpoch {
		if st.machEpoch[m] == v {
			continue
		}
		st.machEpoch[m] = v
		if n := len(src.machJobs[m]); n > cap(st.machJobs[m]) {
			// Outgrown: the machine alone moves to a region of its own
			// with a carve's headroom, not append's doubling, so a
			// long-lived State copied onto from many sources (an
			// island's resident population) does not pile up slack.
			st.machJobs[m] = make([]int32, 0, n+8)
			st.machCumC[m] = make([]float64, 0, n+8)
			st.machCumF[m] = make([]float64, 0, n+8)
		}
		st.machJobs[m] = append(st.machJobs[m][:0], src.machJobs[m]...)
		st.machCumC[m] = append(st.machCumC[m][:0], src.machCumC[m]...)
		st.machCumF[m] = append(st.machCumF[m][:0], src.machCumF[m]...)
	}
}
