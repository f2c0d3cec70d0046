// Package daemon implements gridd, the online rolling-horizon scheduler:
// the batch evaluation stack (schedule.State, the speculative probes and
// the ScanCache queries) turned into a long-running service. Jobs
// stream in and machines join, leave and fail; instead of rescheduling
// from scratch, every admission window warm-starts local search from the
// live state, and arrivals and departures advance the epochs of only the
// machines they touch, which is what the digest re-hashes.
//
// # State model
//
// A Grid owns one etc.Instance sized for capacity: jobCap job slots by
// (machine capacity + 1) columns, where the extra column is the parking
// machine. Every job slot is always assigned somewhere — free and pending
// slots sit on the parking machine with a tiny ETC there and a huge ETC
// on every real machine, live jobs the reverse — so the full-neighborhood
// search methods can run unmodified over the capacity instance: any move
// or swap that would drag a job onto the parking machine, a dead machine
// slot, or a free slot into the working set is worse by construction and
// is rejected by the searches' own accept gates. Slots recycle: a
// completed job's slot parks and is reclaimed by a later submission, with
// its ETC row rewritten while the state cannot observe it (the row of a
// parked job only feeds the state through the parking column, which never
// changes). The instance is therefore deliberately mutable here, against
// the package-level convention — the Grid is its only owner and never
// mutates a value the live State has derived data from.
//
// # Determinism and replay
//
// Grid.Apply is a pure function of (state, event): job and machine ids
// are assigned sequentially, ETC values derive from (job id, machine id,
// seed) exactly as in gridsim, admission placement is greedy MCT with
// lowest-index tie-breaks, committed through State.SetScheduleDiff, and
// the improvement pass seeds its RNG from (seed, admission counter). Wall
// clock never feeds a transition. The state flowtime is re-folded
// canonically (State.RefreshFlowtime) at every event boundary, so a state
// restored from a snapshot — which rebuilds and therefore folds — is
// bit-identical to the live state the snapshot was taken from: same
// snapshot + same event log ⇒ bit-identical schedule trajectory, the
// operational form of the repo's trajectory-compatibility discipline.
//
// # State digest
//
// Grid.Digest names the whole value state in 64 hex characters: a
// homomorphic set hash over keyed records — one per job slot, one per
// machine slot, one per position of the free and pending lists — plus
// the scalar fields (digest.go). The grid keeps the running sum and
// re-hashes only the records changed since the previous call: the slots
// and list positions its transitions touch, every machine whose
// schedule.State epoch moved, and the jobs that local search moved onto
// those machines. A digest therefore costs O(changed + MachCap), so a
// caller can afford one after every event (a primary serving
// followers, the tortures and the replay tests do).
// Snapshots embed it (format version 2) and verify it on restore.
//
// # Failure model and durability
//
// The daemon assumes fail-stop crashes (power loss, OOM kill, SIGKILL)
// that may tear the final in-flight write at any byte, and a filesystem
// whose rename is atomic. Durability rests on two artifacts:
//
// The write-ahead log persists every applied event as one CRC-stamped
// JSON line before the request that carried it is acknowledged; the
// fsync policy (ServerConfig.Fsync) sets how much acknowledged work a
// crash may lose — "always" group-commits at each request ack (zero
// loss), "interval" syncs on a ticker (at most one interval), "never"
// leaves syncing to the OS. On restart, eventlog.Recover applies the
// torn-write rule: a corrupt or partial final record with nothing after
// it is the crash signature and is truncated; corruption anywhere
// earlier is a hard error, never silently skipped. Snapshots are
// written atomically (temp file + fsync + rename) and verify their own
// digest on load, so a crashed snapshot write leaves the previous
// snapshot and a stray temp file, never a half-document.
//
// RecoverGrid is the single restart entry point — snapshot (if any)
// plus log suffix — used by the daemon binary, the restart test and the
// crash torture (crashtest_test.go), which kills the write path at
// dozens of seeded byte offsets (internal/chaos) and requires every
// recovery to reproduce the reference digest trajectory bit for bit.
//
// Under overload the daemon degrades instead of falling over: a bounded
// pending queue pushes back with 429 + Retry-After, request bodies and
// handler wall time are capped, a handler panic answers 500 and
// triggers a structural self-check (CheckInvariants) that flips the
// daemon read-only if state verification fails, and Stop drains
// in-flight requests before the final WAL flush.
//
// # Replication and failover
//
// A second daemon can run as a hot standby: a Replicator demotes it to
// follower (writes answer 503 pointing at the primary) and pulls the
// primary's WAL through a ReplServer — snapshot bootstrap when the
// follower's position has aged out of the log, then a resumable event
// stream. The primary ships its WAL records as its log holds them, and
// ApplyReplicated applies each decoded event and appends the same bytes
// to the follower's WAL, so that WAL is byte-identical to the primary's
// acked prefix; every batch carries the primary's state digest at the
// batch-end sequence, and a mismatch against the follower's own digest
// is ErrDiverged — a permanent stop, never a silent drift.
//
// Failover is Promote (or POST /promote): the follower persists a
// bumped monotonic term beside its WAL before flipping to primary, and
// any replication request carrying a higher term latches the old
// primary fenced (read-only) should it return from a partition — the
// term file is the ballot box, the fence is the concession. Lag is
// observable end to end: /readyz answers "catching-up" until the first
// caught-up pull and "replica-lag" beyond ReplicatorConfig.MaxLag, so
// a balancer never routes reads to a stale standby.
//
// The failover torture (failover_test.go) is the seeded torture for
// exactly this path: chaos on the replication stream (drops, delays,
// duplicates, partitions, connection kills), then a mid-stream primary
// kill and a promotion per case, with the promoted node's digest
// trajectory required to be bit-identical to the dead primary's acked
// prefix and the whole run a pure function of its seed.
package daemon

import (
	"fmt"
	"math"

	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/localsearch"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

const (
	// parkEps scales the parking-column ETC of a parked (free or pending)
	// slot: slot keys are parkEps times a monotonic park sequence number,
	// so every parked slot has a distinct tiny ETC and the parking
	// machine's (ETC, id)-sorted job list is exactly park order. Newly
	// parked slots therefore append at the tail, the free stack (LIFO)
	// hands the tail back out first, and admissions remove from the tail;
	// State commits resum a machine only from its first edited slot, so
	// parking-list maintenance stays O(changed) instead of shifting and
	// re-summing thousands of long-parked slots. The sum over every
	// parked slot stays far below any real machine's completion, so the
	// parking machine can never become critical while jobs are placed.
	parkEps = 1e-12
	// blockETC is the "never go there" ETC: parked slots on real
	// machines (from the admission after they were freed on), live jobs
	// on the parking column and every dead machine column. Any candidate
	// involving such an entry scores at least blockETC worse than doing
	// nothing, so improvement-gated searches cannot select it; sums of a
	// few thousand of these stay far below overflow.
	blockETC = 1e18
)

// Config parameterises a Grid. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// Seed drives ETC pair noise and the per-admission search streams.
	Seed uint64 `json:"seed"`
	// MachCap is the number of real machine slots (live machines ≤ this).
	MachCap int `json:"mach_cap"`
	// JobCap is the initial number of job slots; the grid grows (doubling,
	// with a full re-evaluation) when live + pending jobs exceed it.
	JobCap int `json:"job_cap"`
	// TaskRange and MachRange document the workload model for producers
	// (bases in [1, TaskRange], multipliers in [1, MachRange]); the grid
	// itself accepts any base ≥ 1 and mult ≥ 1.
	TaskRange float64 `json:"task_range"`
	MachRange float64 `json:"mach_range"`
	// PairInconsistency ≥ 1 scales the deterministic per-(job, machine)
	// ETC noise multiplier, gridsim's inconsistency knob.
	PairInconsistency float64 `json:"pair_inconsistency"`
	// LSIters is the local search budget of each admission window.
	LSIters int `json:"ls_iters"`
	// LSMethod names the warm improvement pass (localsearch.ByName).
	LSMethod string `json:"ls_method"`
	// Lambda is the makespan weight of the scalarised objective.
	Lambda float64 `json:"lambda"`
}

// DefaultConfig returns a 64-machine grid with the paper-tuned LMCTS
// improvement pass and objective.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		MachCap:           64,
		JobCap:            1024,
		TaskRange:         8,
		MachRange:         3,
		PairInconsistency: 1.5,
		LSIters:           5,
		LSMethod:          "LMCTS",
		Lambda:            schedule.DefaultLambda,
	}
}

// MaxMachCap is the largest machine slot capacity a grid accepts, from
// gridd's flags and from snapshots alike. It covers the 1k-machine
// frontier; each slot is a column of the grid's ETC matrix, so a larger
// value would let a small document demand a matrix no input backs.
const MaxMachCap = 1024

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.MachCap < 1:
		return fmt.Errorf("daemon: MachCap %d, want >= 1", c.MachCap)
	case c.MachCap > MaxMachCap:
		return fmt.Errorf("daemon: MachCap %d, want <= %d", c.MachCap, MaxMachCap)
	case c.JobCap < 1:
		return fmt.Errorf("daemon: JobCap %d, want >= 1", c.JobCap)
	case c.PairInconsistency < 1:
		return fmt.Errorf("daemon: PairInconsistency %v, want >= 1", c.PairInconsistency)
	case c.LSIters < 0:
		return fmt.Errorf("daemon: negative LSIters")
	case c.Lambda < 0 || c.Lambda > 1:
		return fmt.Errorf("daemon: Lambda %v outside [0, 1]", c.Lambda)
	}
	if err := checkCapacity(c.JobCap, c.MachCap); err != nil {
		return err
	}
	_, err := localsearch.ByName(c.LSMethod)
	return err
}

// checkCapacity rejects a job capacity whose ETC matrix — one row per job
// slot, one column per machine slot plus the parking column — is larger
// than etc.New builds.
func checkCapacity(jobCap, machCap int) error {
	if err := etc.CheckDims(jobCap, machCap+1); err != nil {
		return fmt.Errorf("daemon: job capacity %d: %v", jobCap, err)
	}
	return nil
}

// job slot states.
const (
	slotFree    uint8 = iota
	slotPending       // submitted (or orphaned), parked, awaiting admission
	slotPlaced        // assigned to a live machine
)

type jobSlot struct {
	id    uint64 // 1-based global job id; 0 when free
	base  float64
	state uint8
}

type machSlot struct {
	id       uint64 // 1-based global machine id; 0 when never used
	mult     float64
	alive    bool
	departed bool // left/failed since the last admission; jobs not yet re-pooled
}

// Counters are the grid's monotonic event statistics.
type Counters struct {
	Submitted uint64 `json:"submitted"`
	Placed    uint64 `json:"placed"`
	Completed uint64 `json:"completed"`
	Restarts  uint64 `json:"restarts"` // jobs re-pooled by a machine failure
	Rebalance uint64 `json:"rebalanced"`
	Admits    uint64 `json:"admits"`
	Grows     uint64 `json:"grows"`
	Joined    uint64 `json:"machines_joined"`
	Left      uint64 `json:"machines_left"`
}

// Placement reports one job placed by an admission window.
type Placement struct {
	Job  uint64 // job id
	Mach uint64 // machine id
}

// Grid is the deterministic scheduler state machine behind the daemon.
// It is not safe for concurrent use; the Daemon serialises access.
type Grid struct {
	cfg  Config
	inst *etc.Instance
	st   *schedule.State
	obj  schedule.Objective
	ls   localsearch.Method
	r    rng.Source

	jobs     []jobSlot
	free     []int32 // free slot stack; pop from the end (most recently parked first)
	pending  []int32 // slots awaiting placement, in re-pool/submit order
	byID     map[uint64]int32
	machs    []machSlot
	machByID map[uint64]int

	// unfilled and unblocked are the slots whose real-machine cells an
	// admission writes: slots submitted since the last placing admission
	// get their row when it places them (fillRows), slots freed since
	// the last admission get blockETC (blockFreed). A slot is parked in
	// between, so only its parking cell is visible to the live state, and
	// writing the rows column by column at the admission walks the
	// machine-major matrix in storage order instead of striding across
	// every column once per event.
	unfilled  []int32
	unblocked []int32
	mctRows   []float64 // admission scratch: up to mctChunk pending jobs' alive-machine values

	nextJobID  uint64
	nextMachID uint64
	applied    uint64 // sequence number of the last applied event
	counters   Counters

	// parkSeq counts park operations; parkKeys[s] is the sequence number
	// slot s was last parked under — the slot's position key in the
	// parking machine's job list (ETC = parkKeys[s] * parkEps).
	parkSeq  uint64
	parkKeys []uint64

	// lastPlaced holds the placements of the most recent admission — the
	// daemon reads it for latency accounting and API responses. Not part
	// of the replayed state.
	lastPlaced []Placement

	// dig is the incremental state digest (digest.go): nil until the
	// first Digest call and again after grow. Transitions mark the
	// records they change through the touch methods.
	dig *setDigest
}

// NewGrid builds an empty grid: all job slots free and parked, all
// machine slots dead.
func NewGrid(cfg Config) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ls, _ := localsearch.ByName(cfg.LSMethod)
	g := &Grid{
		cfg:      cfg,
		obj:      schedule.Objective{Lambda: cfg.Lambda},
		ls:       ls,
		jobs:     make([]jobSlot, cfg.JobCap),
		machs:    make([]machSlot, cfg.MachCap),
		byID:     make(map[uint64]int32),
		machByID: make(map[uint64]int),
	}
	g.inst = g.blankInstance(cfg.JobCap)
	g.parkKeys = make([]uint64, cfg.JobCap)
	p := g.park()
	for s := 0; s < cfg.JobCap; s++ {
		g.parkSeq++
		g.parkKeys[s] = g.parkSeq
		g.inst.Set(s, p, g.parkVal(g.parkSeq))
	}
	g.st = schedule.NewState(g.inst, g.parkedSchedule(cfg.JobCap))
	g.st.SetScanExempt(p, true)
	g.free = make([]int32, 0, cfg.JobCap)
	for s := 0; s < cfg.JobCap; s++ {
		g.free = append(g.free, int32(s))
	}
	return g, nil
}

// parkVal maps a park sequence number to its parking-column ETC.
func (g *Grid) parkVal(seq uint64) float64 { return float64(seq) * parkEps }

// park is the parking machine's column index.
func (g *Grid) park() int { return g.cfg.MachCap }

// blankInstance allocates a capacity instance with blockETC on every real
// column. The parking column is left zero — every caller assigns each
// row's park cell (the slot's park key or blockETC) before the instance
// reaches a State. The fill runs column by column, the matrix's storage
// order.
func (g *Grid) blankInstance(jobCap int) *etc.Instance {
	in := etc.New("gridd", jobCap, g.cfg.MachCap+1)
	p := g.park()
	for m := 0; m < p; m++ {
		for s := 0; s < jobCap; s++ {
			in.Set(s, m, blockETC)
		}
	}
	return in
}

func (g *Grid) parkedSchedule(jobCap int) schedule.Schedule {
	sched := make(schedule.Schedule, jobCap)
	p := g.park()
	for s := range sched {
		sched[s] = p
	}
	return sched
}

// pairNoise maps (job id, machine id) to a stable multiplier in
// [1, PairInconsistency) — the same construction as gridsim.Sim, so a
// simulation exported as an event log sees the same ETC structure when
// replayed through the daemon.
func (g *Grid) pairNoise(jobID, machID uint64) float64 {
	if g.cfg.PairInconsistency == 1 {
		return 1
	}
	x := jobID*0x9e3779b97f4a7c15 ^ machID*0xbf58476d1ce4e5b9 ^ g.cfg.Seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	u := float64(x>>11) / (1 << 53)
	return 1 + u*(g.cfg.PairInconsistency-1)
}

// etcOf is the deterministic expected time of a job on a machine.
func (g *Grid) etcOf(jobID uint64, base float64, m *machSlot) float64 {
	return base * m.mult * g.pairNoise(jobID, m.id)
}

// Applied returns the sequence number of the last applied event.
func (g *Grid) Applied() uint64 { return g.applied }

// Counters returns the grid's monotonic statistics.
func (g *Grid) Counters() Counters { return g.counters }

// LastPlacements returns the placements committed by the most recent
// admission window. The slice is reused across admissions.
func (g *Grid) LastPlacements() []Placement { return g.lastPlaced }

// Live returns the number of placed jobs, pending jobs and alive
// machines.
func (g *Grid) Live() (placed, pending, machines int) {
	for i := range g.machs {
		if g.machs[i].alive {
			machines++
		}
	}
	p := 0
	for i := range g.jobs {
		if g.jobs[i].state == slotPlaced {
			p++
		}
	}
	return p, len(g.pending), machines
}

// Quality returns the live schedule's makespan and flowtime over the
// real machines only (the parking column's parked-slot residue, ~1e-6
// per parked slot, is excluded by construction).
func (g *Grid) Quality() (makespan, flowtime float64) {
	for m := 0; m < g.cfg.MachCap; m++ {
		if c := g.st.Completion(m); c > makespan {
			makespan = c
		}
		flowtime += g.machFlow(m)
	}
	return makespan, flowtime
}

// machFlow sums job completion times on real machine m from the state's
// prefix caches (the machine's own flowtime contribution).
func (g *Grid) machFlow(m int) float64 {
	jobs := g.st.JobsOn(m)
	f := 0.0
	t := 0.0
	for _, j := range jobs {
		t += g.inst.At(int(j), m)
		f += t
	}
	return f
}

// JobInfo reports one job's externally visible state.
type JobInfo struct {
	ID    uint64  `json:"id"`
	State string  `json:"state"` // "pending", "placed", "done"/"unknown"
	Base  float64 `json:"base,omitempty"`
	Mach  uint64  `json:"mach,omitempty"` // machine id when placed
}

// Job looks up a job by id.
func (g *Grid) Job(id uint64) JobInfo {
	s, ok := g.byID[id]
	if !ok {
		if id >= 1 && id < g.nextJobID {
			return JobInfo{ID: id, State: "done"}
		}
		return JobInfo{ID: id, State: "unknown"}
	}
	js := &g.jobs[s]
	info := JobInfo{ID: id, Base: js.base}
	switch js.state {
	case slotPending:
		info.State = "pending"
	case slotPlaced:
		info.State = "placed"
		info.Mach = g.machs[g.st.Assign(int(s))].id
	}
	return info
}

// Apply validates e against the current state and applies it. On error
// the grid is unchanged. The event's sequence number, when set, must be
// the next one (applied+1); zero means "assign next".
func (g *Grid) Apply(e eventlog.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Seq != 0 && e.Seq != g.applied+1 {
		return fmt.Errorf("daemon: event seq %d, want %d", e.Seq, g.applied+1)
	}
	var err error
	switch e.Type {
	case eventlog.Submit:
		err = g.applySubmit(e)
	case eventlog.Join:
		err = g.applyJoin(e)
	case eventlog.Leave, eventlog.Fail:
		err = g.applyLeave(e)
	case eventlog.Complete:
		err = g.applyComplete(e)
	case eventlog.Admit:
		err = g.applyAdmit()
	}
	if err != nil {
		return err
	}
	g.applied++
	return nil
}

// NextJobID returns the id the next submitted job will receive.
func (g *Grid) NextJobID() uint64 { return g.nextJobID + 1 }

// NextMachID returns the id the next joining machine will receive.
func (g *Grid) NextMachID() uint64 { return g.nextMachID + 1 }

func (g *Grid) applySubmit(e eventlog.Event) error {
	if e.Job != g.nextJobID+1 {
		return fmt.Errorf("daemon: submit job id %d, want %d", e.Job, g.nextJobID+1)
	}
	if len(g.free) == 0 {
		g.grow()
	}
	s := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	g.touchFree(len(g.free))
	g.nextJobID++
	g.touchJob(s)
	g.jobs[s] = jobSlot{id: e.Job, base: e.Base, state: slotPending}
	g.byID[e.Job] = s
	g.touchPending(len(g.pending))
	g.pending = append(g.pending, s)
	// The row is written by the next admission, which is the first to
	// read it. The parking column keeps the slot's park key until
	// placement.
	g.unfilled = append(g.unfilled, s)
	g.counters.Submitted++
	return nil
}

func (g *Grid) applyJoin(e eventlog.Event) error {
	if e.Mach != g.nextMachID+1 {
		return fmt.Errorf("daemon: join machine id %d, want %d", e.Mach, g.nextMachID+1)
	}
	slot := -1
	for m := range g.machs {
		if !g.machs[m].alive && !g.machs[m].departed && len(g.st.JobsOn(m)) == 0 {
			slot = m
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("daemon: machine capacity %d exhausted", g.cfg.MachCap)
	}
	g.nextMachID++
	g.machs[slot] = machSlot{id: e.Mach, mult: e.Mult, alive: true}
	g.machByID[e.Mach] = slot
	// Rewrite the column for every occupied row. The machine is empty, so
	// no list order depends on the old column; invalidating the machine
	// makes the digest re-hash it and the move-probe context recapture.
	for s := range g.jobs {
		if g.jobs[s].state != slotFree {
			g.inst.Set(s, slot, g.etcOf(g.jobs[s].id, g.jobs[s].base, &g.machs[slot]))
		}
	}
	g.st.InvalidateMachine(slot)
	g.counters.Joined++
	return nil
}

func (g *Grid) applyLeave(e eventlog.Event) error {
	slot, ok := g.machByID[e.Mach]
	if !ok || !g.machs[slot].alive {
		return fmt.Errorf("daemon: machine %d not alive", e.Mach)
	}
	alive := 0
	for m := range g.machs {
		if g.machs[m].alive {
			alive++
		}
	}
	if alive == 1 && len(g.st.JobsOn(slot)) > 0 {
		return fmt.Errorf("daemon: machine %d is the last alive machine with jobs", e.Mach)
	}
	g.machs[slot].alive = false
	g.machs[slot].departed = true
	// The contents stay put, but the flags changed: a fresh epoch tells
	// epoch observers (the state digest) to re-read the machine.
	g.st.InvalidateMachine(slot)
	delete(g.machByID, e.Mach)
	if e.Type == eventlog.Fail {
		g.counters.Restarts += uint64(len(g.st.JobsOn(slot)))
	}
	g.counters.Left++
	// The jobs stay physically on the dead slot until the next admission
	// re-pools and re-places them; no search runs in between, so the
	// stale completion is never consulted.
	return nil
}

func (g *Grid) applyComplete(e eventlog.Event) error {
	s, ok := g.byID[e.Job]
	if !ok {
		return fmt.Errorf("daemon: job %d not live", e.Job)
	}
	g.touchJob(s)
	js := &g.jobs[s]
	p := g.park()
	if js.state == slotPlaced {
		// The producer's machine id, when present, is advisory: a
		// replayed log's producer scheduled independently. A fresh park
		// key puts the slot at the tail of the parking list, so the Move
		// is an O(1) append there: the commit keeps the list's recorded
		// partial sums and sums only the new tail slot.
		g.parkSeq++
		g.parkKeys[s] = g.parkSeq
		g.inst.Set(int(s), p, g.parkVal(g.parkSeq))
		g.st.Move(int(s), p)
		g.st.RefreshFlowtime()
	} else {
		// Completed while pending (e.g. orphaned here but finished by the
		// producer's executor): drop it from the pending queue.
		for i, ps := range g.pending {
			if ps == s {
				g.pending = append(g.pending[:i], g.pending[i+1:]...)
				g.touchPending(i)
				break
			}
		}
		if g.st.Assign(int(s)) != p {
			// Pending but physically stranded on a departed machine (an
			// admission ran with zero alive machines): park it before the
			// slot is recycled, or a later submission would inherit a
			// live assignment.
			g.parkSeq++
			g.parkKeys[s] = g.parkSeq
			g.inst.Set(int(s), p, g.parkVal(g.parkSeq))
			g.st.Move(int(s), p)
			g.st.RefreshFlowtime()
		}
	}
	// The next admission blocks the freed row, unless a submission has
	// taken the slot again by then.
	g.unblocked = append(g.unblocked, s)
	delete(g.byID, e.Job)
	g.jobs[s] = jobSlot{}
	g.touchFree(len(g.free))
	g.free = append(g.free, s)
	g.counters.Completed++
	return nil
}

// applyAdmit closes the admission window: re-pool jobs stranded on
// departed machines, place every pending job (greedy MCT on a scratch
// completion view, lowest-index ties), commit the whole batch through
// SetScheduleDiff — dirtying only the touched machines — and run the
// bounded warm-start improvement pass over the live state.
func (g *Grid) applyAdmit() error {
	g.counters.Admits++
	g.lastPlaced = g.lastPlaced[:0]
	g.blockFreed()

	// Re-pool: jobs on departed machines go back to pending, in list
	// order (JobsOn is (ETC, id)-ordered — deterministic). A job already
	// pending was re-pooled by an earlier window that found no machine to
	// place it on; don't queue it twice.
	for m := range g.machs {
		if !g.machs[m].departed {
			continue
		}
		for _, s := range g.st.JobsOn(m) {
			if g.jobs[s].state == slotPending {
				continue
			}
			g.touchJob(s)
			g.jobs[s].state = slotPending
			g.touchPending(len(g.pending))
			g.pending = append(g.pending, s)
			g.counters.Rebalance++
		}
	}

	aliveMachs := make([]int, 0, len(g.machs))
	for m := range g.machs {
		if g.machs[m].alive {
			aliveMachs = append(aliveMachs, m)
		}
	}
	if len(aliveMachs) == 0 {
		// Nothing to place against; pending jobs wait (their rows with
		// them), departed slots keep their stranded jobs until a machine
		// exists.
		return nil
	}

	// Greedy MCT placement over a scratch completion view.
	placed := g.pending
	if len(g.pending) > 0 {
		cand := g.st.Schedule()
		comp := make([]float64, len(g.machs))
		for _, m := range aliveMachs {
			comp[m] = g.st.Completion(m)
		}
		for c0 := 0; c0 < len(g.pending); c0 += mctChunk {
			chunk := g.pending[c0:min(c0+mctChunk, len(g.pending))]
			rows := g.pendingRows(chunk, aliveMachs)
			for i, s := range chunk {
				row := rows[i*len(aliveMachs):][:len(aliveMachs)]
				best, bestK, bestC := -1, -1, math.Inf(1)
				for k, m := range aliveMachs {
					if c := comp[m] + row[k]; c < bestC {
						best, bestK, bestC = m, k, c
					}
				}
				cand[s] = best
				comp[best] += row[bestK]
				g.touchJob(s)
				g.jobs[s].state = slotPlaced
			}
			g.fillRows(chunk, aliveMachs, rows)
		}
		g.blockUnfilled()
		g.st.SetScheduleDiff(cand)
		// Placed jobs must not be parkable by the search.
		p := g.park()
		for _, s := range g.pending {
			g.inst.Set(int(s), p, blockETC)
		}
		g.counters.Placed += uint64(len(g.pending))
		g.pending = nil // placed aliases the old backing array until the window ends
		g.touchPending(0)
	}
	g.unfilled = g.unfilled[:0]

	// Departed slots are empty now; block their columns and invalidate.
	for m := range g.machs {
		if !g.machs[m].departed {
			continue
		}
		for s := range g.jobs {
			if g.jobs[s].state != slotFree {
				g.inst.Set(s, m, blockETC)
			}
		}
		g.machs[m].departed = false
		g.st.InvalidateMachine(m)
	}

	// Warm-start improvement from the live state (the parking column is
	// scan-exempt, so LMCTS's critical-swap pass skips it).
	if g.cfg.LSIters > 0 {
		g.r.Reseed(g.cfg.Seed ^ g.counters.Admits*0x9e3779b97f4a7c15)
		g.ls.Improve(g.st, g.obj, g.cfg.LSIters, &g.r)
	}
	g.st.RefreshFlowtime()
	// Report placements as they stand after the improvement pass — the
	// search may have moved a job off its greedy machine.
	for _, s := range placed {
		g.lastPlaced = append(g.lastPlaced, Placement{
			Job:  g.jobs[s].id,
			Mach: g.machs[g.st.Assign(int(s))].id,
		})
	}
	g.pending = placed[:0]
	return nil
}

// blockFreed writes blockETC on every real machine for each slot freed
// since the last admission and still free, column by column.
func (g *Grid) blockFreed() {
	free := g.unblocked[:0]
	for _, s := range g.unblocked {
		if g.jobs[s].state == slotFree {
			free = append(free, s)
		}
	}
	g.unblocked = g.unblocked[:0]
	if len(free) == 0 {
		return
	}
	jobs := g.inst.Jobs
	for m := 0; m < g.park(); m++ {
		col := g.inst.ETC[m*jobs:][:jobs]
		for _, s := range free {
			col[s] = blockETC
		}
	}
}

// mctChunk is how many pending jobs the admission places per pass: their
// rows are computed into a scratch of mctChunk rows, placed in order and
// written out column by column, so the scratch stays small however many
// jobs the window holds.
const mctChunk = 16

// pendingRows computes each chunk job's value on every alive machine,
// row i holding chunk[i]'s value on alive[k] at k. These are the cells
// the matrix holds for them there: a re-pooled job's since its placement
// (a later join rewrote its column), a fresh one's once fillRows has
// written it.
func (g *Grid) pendingRows(chunk []int32, alive []int) []float64 {
	n := len(chunk) * len(alive)
	if cap(g.mctRows) < n {
		g.mctRows = make([]float64, mctChunk*len(g.machs))
	}
	rows := g.mctRows[:n]
	for i, s := range chunk {
		js := &g.jobs[s]
		row := rows[i*len(alive):][:len(alive)]
		for k, m := range alive {
			row[k] = g.etcOf(js.id, js.base, &g.machs[m])
		}
	}
	return rows
}

// fillRows writes the chunk jobs' rows (from pendingRows) on the alive
// machines, column by column, before the placement commits.
func (g *Grid) fillRows(chunk []int32, alive []int, rows []float64) {
	jobs := g.inst.Jobs
	for k, m := range alive {
		col := g.inst.ETC[m*jobs:][:jobs]
		for i, s := range chunk {
			col[s] = rows[i*len(alive)+k]
		}
	}
}

// blockUnfilled writes blockETC on every dead real machine for each job
// submitted since the last placing admission and still live. A
// re-pooled job keeps its cells there: it still sits on its departed
// machine until the placement commits.
func (g *Grid) blockUnfilled() {
	jobs := g.inst.Jobs
	for m := 0; m < g.park(); m++ {
		if g.machs[m].alive {
			continue
		}
		col := g.inst.ETC[m*jobs:][:jobs]
		for _, s := range g.unfilled {
			if g.jobs[s].state != slotFree {
				col[s] = blockETC
			}
		}
	}
}

// grow doubles the job capacity: a new instance and state carrying the
// current assignment, every new slot free and parked. This is the one
// cold restart in the grid's life (the next Digest folds from scratch);
// it is deterministic — triggered purely by the event stream —
// and amortised by the doubling.
func (g *Grid) grow() {
	oldCap := len(g.jobs)
	newCap := oldCap * 2
	inst := g.blankInstance(newCap)
	p := g.park()
	// Copy column by column. Park cells carry the slot's park key (or
	// blockETC when placed) for free and occupied slots alike — the
	// parking list order is part of the trajectory.
	for s := 0; s < oldCap; s++ {
		inst.Set(s, p, g.inst.At(s, p))
	}
	for m := 0; m < p; m++ {
		for s := 0; s < oldCap; s++ {
			if g.jobs[s].state != slotFree {
				inst.Set(s, m, g.inst.At(s, m))
			}
		}
	}
	g.parkKeys = append(g.parkKeys, make([]uint64, newCap-oldCap)...)
	for s := oldCap; s < newCap; s++ {
		g.parkSeq++
		g.parkKeys[s] = g.parkSeq
		inst.Set(s, p, g.parkVal(g.parkSeq))
	}
	sched := g.parkedSchedule(newCap)
	old := g.st.ScheduleView()
	copy(sched, old)
	g.inst = inst
	g.st = schedule.NewState(inst, sched)
	g.st.SetScanExempt(p, true)
	g.jobs = append(g.jobs, make([]jobSlot, newCap-oldCap)...)
	for s := oldCap; s < newCap; s++ {
		g.free = append(g.free, int32(s))
	}
	g.counters.Grows++
	// Every slot record and the new state's epochs are new: the next
	// Digest folds from scratch.
	g.dig = nil
}

// PendingCount returns the number of jobs awaiting admission — the
// quantity the daemon's backpressure bound is enforced against.
func (g *Grid) PendingCount() int { return len(g.pending) }

// CheckInvariants verifies the grid's structural consistency: the id
// maps, the free/pending/placed slot partition, assignment ranges and
// the parking discipline. It is the health probe the daemon runs after
// a handler panic — a clean result means the panic unwound without
// half-applying a transition, so the daemon can keep serving; a
// violation means the state machine is corrupt and must be rebuilt from
// the WAL. It reads but never mutates.
func (g *Grid) CheckInvariants() error {
	p := g.park()
	free := make(map[int32]bool, len(g.free))
	for _, s := range g.free {
		if s < 0 || int(s) >= len(g.jobs) {
			return fmt.Errorf("daemon: free slot %d out of range", s)
		}
		if free[s] {
			return fmt.Errorf("daemon: slot %d on the free stack twice", s)
		}
		free[s] = true
	}
	pending := make(map[int32]bool, len(g.pending))
	for _, s := range g.pending {
		if s < 0 || int(s) >= len(g.jobs) {
			return fmt.Errorf("daemon: pending slot %d out of range", s)
		}
		if pending[s] {
			return fmt.Errorf("daemon: slot %d pending twice", s)
		}
		pending[s] = true
	}
	var occupied int
	for s := range g.jobs {
		js := &g.jobs[s]
		a := g.st.Assign(s)
		if a < 0 || a > p {
			return fmt.Errorf("daemon: slot %d assigned to machine %d outside [0, %d]", s, a, p)
		}
		switch js.state {
		case slotFree:
			if js.id != 0 {
				return fmt.Errorf("daemon: free slot %d carries job id %d", s, js.id)
			}
			if !free[int32(s)] {
				return fmt.Errorf("daemon: free slot %d missing from the free stack", s)
			}
			if a != p {
				return fmt.Errorf("daemon: free slot %d not parked (on machine %d)", s, a)
			}
		case slotPending:
			occupied++
			if js.id == 0 {
				return fmt.Errorf("daemon: pending slot %d without a job id", s)
			}
			if !pending[int32(s)] && a == p {
				return fmt.Errorf("daemon: parked pending slot %d missing from the pending queue", s)
			}
			if got, ok := g.byID[js.id]; !ok || got != int32(s) {
				return fmt.Errorf("daemon: job %d on slot %d not indexed (byID says %d, %v)", js.id, s, got, ok)
			}
		case slotPlaced:
			occupied++
			if js.id == 0 {
				return fmt.Errorf("daemon: placed slot %d without a job id", s)
			}
			if a == p {
				return fmt.Errorf("daemon: placed job %d parked", js.id)
			}
			if g.machs[a].id == 0 {
				return fmt.Errorf("daemon: job %d placed on never-used machine slot %d", js.id, a)
			}
			if got, ok := g.byID[js.id]; !ok || got != int32(s) {
				return fmt.Errorf("daemon: job %d on slot %d not indexed (byID says %d, %v)", js.id, s, got, ok)
			}
		default:
			return fmt.Errorf("daemon: slot %d in unknown state %d", s, js.state)
		}
	}
	if len(g.byID) != occupied {
		return fmt.Errorf("daemon: byID holds %d entries for %d occupied slots", len(g.byID), occupied)
	}
	for id, m := range g.machByID {
		if m < 0 || m >= len(g.machs) {
			return fmt.Errorf("daemon: machine %d indexed to slot %d out of range", id, m)
		}
		if g.machs[m].id != id || !g.machs[m].alive {
			return fmt.Errorf("daemon: machByID[%d]=%d disagrees with slot (id %d, alive %v)",
				id, m, g.machs[m].id, g.machs[m].alive)
		}
	}
	return nil
}

// LiveInstance extracts the current placed jobs and alive machines as a
// clean batch instance (no parking column, no capacity slack) plus the
// live assignment mapped onto it — the input a cold re-solve would see.
// Returns nil when no jobs are placed or no machine is alive.
func (g *Grid) LiveInstance() (*etc.Instance, schedule.Schedule) {
	var slots []int32
	for s := range g.jobs {
		if g.jobs[s].state == slotPlaced {
			slots = append(slots, int32(s))
		}
	}
	var machs []int
	machIdx := make([]int, len(g.machs))
	for m := range g.machs {
		machIdx[m] = -1
		if g.machs[m].alive {
			machIdx[m] = len(machs)
			machs = append(machs, m)
		}
	}
	if len(slots) == 0 || len(machs) == 0 {
		return nil, nil
	}
	in := etc.New(fmt.Sprintf("gridd-live-%d", g.counters.Admits), len(slots), len(machs))
	for k, m := range machs {
		for i, s := range slots {
			in.Set(i, k, g.inst.At(int(s), m))
		}
	}
	sched := make(schedule.Schedule, len(slots))
	for i, s := range slots {
		sched[i] = machIdx[g.st.Assign(int(s))]
	}
	in.Finalize()
	return in, sched
}
