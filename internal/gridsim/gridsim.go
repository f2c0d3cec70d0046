// Package gridsim is a discrete-event simulator of a dynamic computational
// grid. It realises the deployment story of the paper's conclusions: a
// dynamic scheduler is obtained by running the (batch) cMA scheduler
// periodically over the jobs that arrived since its last activation.
//
// The simulation models:
//
//   - independent jobs arriving as a Poisson process, each with a base
//     workload drawn from the ETC range model;
//   - heterogeneous machines with per-machine speed multipliers and
//     optional churn (random joins and leaves);
//   - a scheduler activation every ActivationInterval of simulated time,
//     which snapshots the unstarted jobs and the alive machines into an
//     etc.Instance (machine ready times = remaining work of the running
//     jobs) and asks a pluggable Policy for a schedule;
//   - non-preemptive execution: a job lost to a machine departure is
//     re-pooled and restarted elsewhere at the next activation.
//
// Simulated time is a plain float64 in arbitrary time units; the whole
// simulation is deterministic given Config.Seed, which makes policies
// directly comparable: a policy never draws from the simulation's random
// stream, so every policy sees the same arrivals. Config.Record exports
// a run, arrivals included, as a gridd event log.
package gridsim

import (
	"fmt"
	"math"

	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// Policy produces a schedule for a batch instance. Implementations wrap a
// constructive heuristic or a budgeted metaheuristic run. seed varies per
// activation so stochastic policies stay deterministic per simulation.
type Policy interface {
	Name() string
	Assign(in *etc.Instance, seed uint64) schedule.Schedule
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc struct {
	PolicyName string
	Fn         func(in *etc.Instance, seed uint64) schedule.Schedule
}

// Name implements Policy.
func (p PolicyFunc) Name() string { return p.PolicyName }

// Assign implements Policy.
func (p PolicyFunc) Assign(in *etc.Instance, seed uint64) schedule.Schedule {
	return p.Fn(in, seed)
}

// Config parameterises a simulation.
type Config struct {
	// Horizon is the simulated end time. Events after it are discarded.
	Horizon float64
	// ArrivalRate is the expected number of job arrivals per time unit.
	ArrivalRate float64
	// InitialMachines is the number of machines alive at time 0.
	InitialMachines int
	// TaskRange bounds the per-job base workload draw U[1, TaskRange].
	TaskRange float64
	// MachRange bounds the per-machine slowness multiplier U[1, MachRange].
	MachRange float64
	// PairInconsistency ≥ 1 scales a deterministic per-(job, machine)
	// noise multiplier U[1, PairInconsistency]; 1 yields a consistent
	// grid, larger values increasingly inconsistent ones.
	PairInconsistency float64
	// ActivationInterval is the period of scheduler activations.
	ActivationInterval float64
	// JoinRate and LeaveRate are the Poisson rates of machine churn
	// (0 disables). A leave never removes the last machine.
	JoinRate, LeaveRate float64
	// Seed drives every random draw of the simulation.
	Seed uint64
	// Record, when set, is called with every externally meaningful
	// transition of the simulation — machine joins (including the initial
	// fleet at time 0), admitted job arrivals, scheduler activations,
	// completions and machine departures — as daemon event-log records in
	// execution order: a valid, sequential gridd event stream (ids are the
	// simulator's shifted to 1-based, Seq left 0 for the consumer to
	// stamp, T the simulated time). Departures are emitted as Fail events
	// because a leave loses its running job, which is gridd's fail
	// semantics. Replaying the stream through a daemon Grid reproduces
	// the simulated workload exactly; the placements differ (the daemon
	// schedules with its own warm-start path, the simulator with its
	// Policy), which is what makes the pair comparable.
	Record func(eventlog.Event)
}

// DefaultConfig returns a moderate dynamic scenario: ~1000 jobs over 1000
// time units on 16 machines with mild churn. The workload ranges are
// chosen so the offered load (mean ETC × arrival rate ≈ 11) sits around
// 70 % of the 16-machine capacity — busy but feasible.
func DefaultConfig() Config {
	return Config{
		Horizon:            1000,
		ArrivalRate:        1.0,
		InitialMachines:    16,
		TaskRange:          8,
		MachRange:          3,
		PairInconsistency:  1.5,
		ActivationInterval: 25,
		JoinRate:           0.002,
		LeaveRate:          0.002,
		Seed:               1,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("gridsim: non-positive horizon")
	case c.ArrivalRate <= 0:
		return fmt.Errorf("gridsim: non-positive arrival rate")
	case c.InitialMachines < 1:
		return fmt.Errorf("gridsim: need at least one machine")
	case c.TaskRange < 1 || c.MachRange < 1:
		return fmt.Errorf("gridsim: ranges must be >= 1")
	case c.PairInconsistency < 1:
		return fmt.Errorf("gridsim: PairInconsistency must be >= 1")
	case c.ActivationInterval <= 0:
		return fmt.Errorf("gridsim: non-positive activation interval")
	case c.JoinRate < 0 || c.LeaveRate < 0:
		return fmt.Errorf("gridsim: negative churn rate")
	}
	return nil
}

// Metrics summarises one simulation run.
type Metrics struct {
	JobsArrived   int
	JobsCompleted int
	// JobsRestarted counts jobs re-pooled because their machine left.
	JobsRestarted                int
	Activations                  int
	MachinesJoined, MachinesLeft int
	// Makespan is the completion time of the last finished job.
	Makespan float64
	// MeanResponse averages finish − arrival over completed jobs (the
	// dynamic analogue of flowtime).
	MeanResponse float64
	// MeanWait averages start − arrival over completed jobs.
	MeanWait float64
	// Utilization is total busy machine time divided by total alive
	// machine time within the horizon.
	Utilization float64
}

// event kinds, processed in time order (ties by sequence).
type evKind int

const (
	evArrival evKind = iota
	evActivation
	evCompletion
	evJoin
	evLeave
)

type event struct {
	t    float64
	seq  int
	kind evKind
	job  int // evArrival (ignored), evCompletion: job id
	mach int // evCompletion: machine id
}

// eventQueue is a binary min-heap of events ordered by (time, sequence).
// It is typed end to end — push and pop traffic in event values, not the
// boxed interface{} of container/heap, so the hot simulation loop does
// no per-event allocation.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		next := left
		if right := left + 1; right < n && h.less(right, left) {
			next = right
		}
		if !h.less(next, i) {
			break
		}
		h[i], h[next] = h[next], h[i]
		i = next
	}
	return top
}

type jobState int

const (
	jobPending jobState = iota
	jobQueued
	jobRunning
	jobDone
)

type job struct {
	id       int
	base     float64 // workload draw
	arrived  float64
	started  float64
	finished float64
	state    jobState
	mach     int // current machine when queued/running
	restarts int
}

type machine struct {
	id       int
	mult     float64 // slowness multiplier (1 is fastest)
	alive    bool
	joined   float64
	left     float64
	busyTill float64
	running  int   // job id or -1
	queue    []int // unstarted assigned jobs, FIFO
	busyTime float64
}

// Sim is one simulation run. Construct with NewSim, drive with Run.
type Sim struct {
	cfg    Config
	policy Policy
	r      *rng.Source
	events eventQueue
	seq    int
	now    float64

	jobs  []*job
	machs []*machine

	metrics Metrics
}

// NewSim validates the configuration and prepares a simulation.
func NewSim(cfg Config, policy Policy) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("gridsim: nil policy")
	}
	s := &Sim{cfg: cfg, policy: policy, r: rng.New(cfg.Seed)}
	for i := 0; i < cfg.InitialMachines; i++ {
		s.addMachine(0)
	}
	// Prime the event streams; each arrival schedules the next.
	s.push(s.exp(cfg.ArrivalRate), evArrival, 0, 0)
	s.push(cfg.ActivationInterval, evActivation, 0, 0)
	if cfg.JoinRate > 0 {
		s.push(s.exp(cfg.JoinRate), evJoin, 0, 0)
	}
	if cfg.LeaveRate > 0 {
		s.push(s.exp(cfg.LeaveRate), evLeave, 0, 0)
	}
	return s, nil
}

// exp draws an exponential inter-arrival time with the given rate.
func (s *Sim) exp(rate float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return s.now - math.Log(u)/rate
}

func (s *Sim) push(t float64, k evKind, jobID, machID int) {
	if t > s.cfg.Horizon {
		return
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: k, job: jobID, mach: machID})
}

func (s *Sim) addMachine(t float64) *machine {
	m := &machine{
		id:      len(s.machs),
		mult:    s.r.Uniform(1, s.cfg.MachRange),
		alive:   true,
		joined:  t,
		running: -1,
	}
	s.machs = append(s.machs, m)
	s.record(eventlog.Event{T: t, Type: eventlog.Join, Mach: uint64(m.id) + 1, Mult: m.mult})
	return m
}

// record emits e to the Config.Record hook when one is installed.
func (s *Sim) record(e eventlog.Event) {
	if s.cfg.Record != nil {
		s.cfg.Record(e)
	}
}

// etcOf returns the deterministic expected time of job j on machine m:
// base workload × machine slowness × pair noise (etc.PairNoise, shared
// with the daemon).
func (s *Sim) etcOf(j *job, m *machine) float64 {
	return j.base * m.mult * etc.PairNoise(uint64(j.id), uint64(m.id), s.cfg.Seed, s.cfg.PairInconsistency)
}

// Run drives the simulation to the horizon and returns its metrics.
func (s *Sim) Run() Metrics {
	for len(s.events) > 0 {
		e := s.events.pop()
		s.now = e.t
		switch e.kind {
		case evArrival:
			s.onArrival()
		case evActivation:
			s.onActivation()
		case evCompletion:
			s.onCompletion(e.job, e.mach)
		case evJoin:
			s.onJoin()
		case evLeave:
			s.onLeave()
		}
	}
	s.finish()
	return s.metrics
}

// onArrival admits a job of the Poisson process, drawing its workload,
// and schedules the next arrival.
func (s *Sim) onArrival() {
	base := s.r.Uniform(1, s.cfg.TaskRange)
	j := &job{
		id:      len(s.jobs),
		base:    base,
		arrived: s.now,
		state:   jobPending,
		mach:    -1,
	}
	s.jobs = append(s.jobs, j)
	s.metrics.JobsArrived++
	s.record(eventlog.Event{T: s.now, Type: eventlog.Submit, Job: uint64(j.id) + 1, Base: base})
	s.push(s.exp(s.cfg.ArrivalRate), evArrival, 0, 0)
}

// aliveMachines returns the alive machines in id order.
func (s *Sim) aliveMachines() []*machine {
	out := make([]*machine, 0, len(s.machs))
	for _, m := range s.machs {
		if m.alive {
			out = append(out, m)
		}
	}
	return out
}

// onActivation snapshots pending and queued-unstarted jobs plus alive
// machines into an etc.Instance, runs the policy and requeues accordingly.
func (s *Sim) onActivation() {
	defer s.push(s.now+s.cfg.ActivationInterval, evActivation, 0, 0)
	machs := s.aliveMachines()
	if len(machs) == 0 {
		return
	}
	// Re-pool queued but unstarted jobs: the batch scheduler replans them.
	var batch []*job
	for _, j := range s.jobs {
		switch j.state {
		case jobPending, jobQueued:
			batch = append(batch, j)
		}
	}
	for _, m := range machs {
		m.queue = m.queue[:0]
	}
	if len(batch) == 0 {
		return
	}
	s.metrics.Activations++
	s.record(eventlog.Event{T: s.now, Type: eventlog.Admit})

	in := etc.New(fmt.Sprintf("activation-%d@%.1f", s.metrics.Activations, s.now), len(batch), len(machs))
	for mi, m := range machs {
		for bi, j := range batch {
			in.Set(bi, mi, s.etcOf(j, m))
		}
	}
	for mi, m := range machs {
		if m.busyTill > s.now {
			in.Ready[mi] = m.busyTill - s.now
		}
	}
	in.Finalize()

	assign := s.policy.Assign(in, s.cfg.Seed^uint64(s.metrics.Activations)*0x9e3779b97f4a7c15)
	if err := assign.Validate(in); err != nil {
		panic(fmt.Sprintf("gridsim: policy %s produced invalid schedule: %v", s.policy.Name(), err))
	}
	// Enqueue per machine in SPT order (the flowtime convention of the
	// static evaluator).
	st := schedule.NewState(in, assign)
	for mi, m := range machs {
		for _, bi := range st.JobsOn(mi) {
			j := batch[bi]
			j.state = jobQueued
			j.mach = m.id
			m.queue = append(m.queue, j.id)
		}
		s.kick(m)
	}
}

// kick starts the next queued job on m if it is idle.
func (s *Sim) kick(m *machine) {
	if !m.alive || m.running >= 0 || len(m.queue) == 0 || m.busyTill > s.now {
		return
	}
	jid := m.queue[0]
	m.queue = m.queue[1:]
	j := s.jobs[jid]
	j.state = jobRunning
	j.started = s.now
	j.mach = m.id
	m.running = jid
	d := s.etcOf(j, m)
	m.busyTill = s.now + d
	m.busyTime += d
	s.push(m.busyTill, evCompletion, jid, m.id)
}

func (s *Sim) onCompletion(jid, mid int) {
	m := s.machs[mid]
	j := s.jobs[jid]
	if !m.alive || m.running != jid || j.state != jobRunning {
		return // stale event: the machine left and the job was re-pooled
	}
	j.state = jobDone
	j.finished = s.now
	m.running = -1
	s.metrics.JobsCompleted++
	s.record(eventlog.Event{T: s.now, Type: eventlog.Complete, Job: uint64(jid) + 1})
	if s.now > s.metrics.Makespan {
		s.metrics.Makespan = s.now
	}
	s.kick(m)
}

func (s *Sim) onJoin() {
	s.addMachine(s.now)
	s.metrics.MachinesJoined++
	s.push(s.exp(s.cfg.JoinRate), evJoin, 0, 0)
}

func (s *Sim) onLeave() {
	defer s.push(s.exp(s.cfg.LeaveRate), evLeave, 0, 0)
	alive := s.aliveMachines()
	if len(alive) <= 1 {
		return // never drop the last machine
	}
	m := alive[s.r.Intn(len(alive))]
	m.alive = false
	m.left = s.now
	s.metrics.MachinesLeft++
	s.record(eventlog.Event{T: s.now, Type: eventlog.Fail, Mach: uint64(m.id) + 1})
	// Running job is lost (non-preemptive restart) and queued jobs are
	// re-pooled for the next activation.
	if m.running >= 0 {
		j := s.jobs[m.running]
		// Remove the busy time the machine will not actually deliver.
		m.busyTime -= m.busyTill - s.now
		j.state = jobPending
		j.mach = -1
		j.restarts++
		s.metrics.JobsRestarted++
		m.running = -1
	}
	for _, jid := range m.queue {
		j := s.jobs[jid]
		j.state = jobPending
		j.mach = -1
	}
	m.queue = nil
	m.busyTill = s.now
}

// finish computes the aggregate metrics at the horizon.
func (s *Sim) finish() {
	s.now = s.cfg.Horizon
	var resp, wait float64
	n := 0
	for _, j := range s.jobs {
		if j.state == jobDone {
			resp += j.finished - j.arrived
			wait += j.started - j.arrived
			n++
		}
	}
	if n > 0 {
		s.metrics.MeanResponse = resp / float64(n)
		s.metrics.MeanWait = wait / float64(n)
	}
	var busy, aliveTime float64
	for _, m := range s.machs {
		end := m.left
		if m.alive {
			end = s.cfg.Horizon
		}
		aliveTime += end - m.joined
		b := m.busyTime
		if m.busyTill > end {
			b -= m.busyTill - end // unfinished tail beyond horizon
		}
		busy += b
	}
	if aliveTime > 0 {
		s.metrics.Utilization = busy / aliveTime
	}
}

// Simulate is the convenience one-shot API.
func Simulate(cfg Config, policy Policy) (Metrics, error) {
	s, err := NewSim(cfg, policy)
	if err != nil {
		return Metrics{}, err
	}
	return s.Run(), nil
}
