package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridcma/internal/rng"
	"gridcma/internal/transport"
)

// The message-fault model of the chaos torture: the fault kinds, the
// seeded plan generator, the interpreter that injects a plan through a
// wrapped transport.Client, and the survivor oracle the torture checks
// every faulted run against.
//
// Where the WAL file faults of internal/chaos tear a log at byte
// offsets, message faults tear an RPC conversation at (worker, round)
// offsets: requests are dropped, delayed past timeouts, delivered twice,
// or the worker process dies — once (the supervisor restarts it) or for
// good (the migration ring must heal around it). Plans are pure functions
// of the seed, so a torture case that fails names the exact fault
// schedule.

// MsgKind enumerates the injected message/worker fault types.
type MsgKind int

const (
	// MsgDrop: the call is lost in flight (request or reply — the caller
	// cannot tell) and fails like any lost RPC: the coordinator marks the
	// worker dead and restarts it before the next attempt. Count
	// consecutive calls are dropped.
	MsgDrop MsgKind = iota
	// MsgDelay: the call is held for Count delay units before being
	// delivered. A delay longer than the caller's per-call timeout is the
	// hung-worker case: the caller gives up, the reply is discarded.
	MsgDelay
	// MsgDup: the request is delivered twice; the caller uses the last
	// reply. Probes that segment execution is idempotent (a reply is a
	// pure function of its request, so it must be).
	MsgDup
	// MsgKill: the worker dies when the fault fires; the supervisor's
	// restart succeeds and the call is retried against the fresh worker.
	MsgKill
	// MsgDown: the worker dies and every restart fails for the rest of
	// the run — from the fault's round onward all its calls fail, its
	// islands are lost, and the ring heals around them.
	MsgDown
	numMsgKinds
)

func (k MsgKind) String() string {
	switch k {
	case MsgDrop:
		return "msg-drop"
	case MsgDelay:
		return "msg-delay"
	case MsgDup:
		return "msg-dup"
	case MsgKill:
		return "worker-kill"
	case MsgDown:
		return "worker-down"
	}
	return fmt.Sprintf("dist.MsgKind(%d)", int(k))
}

// MsgFault is one scheduled message fault: Kind fires on calls to Worker
// during (for MsgDown: from) round Round. Count scales repeatable kinds —
// consecutive drops, or delay units to hold a delivery.
type MsgFault struct {
	Worker int
	Round  int
	Kind   MsgKind
	Count  int
}

func (f MsgFault) String() string {
	if f.Count > 1 {
		return fmt.Sprintf("%s@w%d/r%d x%d", f.Kind, f.Worker, f.Round, f.Count)
	}
	return fmt.Sprintf("%s@w%d/r%d", f.Kind, f.Worker, f.Round)
}

// MsgPlan draws n message faults deterministically from seed, spread over
// workers [0, workers) and rounds [0, rounds), cycling kinds with a bias
// toward the transient faults retries must absorb. Drop counts stay at or
// below 2 so a default 4-attempt retry budget can always absorb them, and
// permanent deaths (MsgDown) never target worker 0, guaranteeing at least
// one survivor host however many faults a torture case stacks up.
func MsgPlan(seed uint64, n, workers, rounds int) []MsgFault {
	if workers < 1 {
		workers = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	r := rng.New(seed ^ 0x9e5cf1a7)
	kinds := []MsgKind{MsgDrop, MsgKill, MsgDelay, MsgDrop, MsgDup, MsgDelay, MsgKill, MsgDown}
	// Rotate the cycle by a seeded offset so plans shorter than one full
	// cycle still sample every kind across seeds (a 4-fault plan starting
	// at offset 0 would otherwise never contain a permanent death).
	off := r.Intn(len(kinds))
	out := make([]MsgFault, n)
	for i := range out {
		f := MsgFault{
			Kind:   kinds[(off+i)%len(kinds)],
			Worker: r.Intn(workers),
			Round:  r.Intn(rounds),
			Count:  1,
		}
		switch f.Kind {
		case MsgDrop:
			f.Count = 1 + r.Intn(2)
		case MsgDelay:
			f.Count = 1 + r.Intn(3)
		case MsgDown:
			if workers > 1 {
				f.Worker = 1 + r.Intn(workers-1)
			} else {
				// A single host must stay alive: degrade to a transient kill.
				f.Kind = MsgKill
			}
		}
		out[i] = f
	}
	return out
}

// Errors the fault-injecting client returns in place of a reply.
var (
	errDropped     = errors.New("injected message drop")
	errKilled      = errors.New("injected worker kill")
	errDownForGood = errors.New("injected permanent death")
)

// faultPlan interprets a MsgPlan for one run. Consumable faults (drop,
// delay, dup, transient kill) are keyed by (worker, round) and consumed
// call by call; a permanent death (MsgDown) kills every call to the
// worker from the fault's round onward, and once such a kill has fired
// the wrapped factory refuses the worker's restarts. Keying on the
// *request's* round — not wall-clock arrival — is what makes a faulted
// run a pure function of (seed, plan): however goroutines interleave, the
// same calls meet the same faults.
type faultPlan struct {
	delayUnit time.Duration

	mu       sync.Mutex
	downFrom map[int]int           // worker → first permanently-down round
	pending  map[[2]int][]MsgFault // (worker, round) → consumable queue
	gone     map[int]bool          // workers whose permanent death fired
	fired    [numMsgKinds]int      // faults injected, by kind
}

// newFaultPlan compiles faults into an injector. delayUnit scales
// MsgDelay counts.
func newFaultPlan(faults []MsgFault, delayUnit time.Duration) *faultPlan {
	p := &faultPlan{
		delayUnit: delayUnit,
		downFrom:  make(map[int]int),
		pending:   make(map[[2]int][]MsgFault),
		gone:      make(map[int]bool),
	}
	for _, f := range faults {
		if f.Kind == MsgDown {
			if cur, ok := p.downFrom[f.Worker]; !ok || f.Round < cur {
				p.downFrom[f.Worker] = f.Round
			}
			continue
		}
		f.Count = max(f.Count, 1)
		key := [2]int{f.Worker, f.Round}
		p.pending[key] = append(p.pending[key], f)
	}
	return p
}

// next consumes the fault, if any, governing one call to worker w in
// round r, and counts it as fired.
func (p *faultPlan) next(w, r int) (MsgFault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dr, ok := p.downFrom[w]; ok && r >= dr {
		p.gone[w] = true
		p.fired[MsgDown]++
		return MsgFault{Worker: w, Round: r, Kind: MsgDown, Count: 1}, true
	}
	key := [2]int{w, r}
	q := p.pending[key]
	if len(q) == 0 {
		return MsgFault{}, false
	}
	f := q[0]
	if f.Kind == MsgDrop && f.Count > 1 {
		q[0].Count-- // consecutive drops: one per call
	} else {
		p.pending[key] = q[1:]
	}
	p.fired[f.Kind]++
	return f, true
}

// wrap returns a factory whose clients inject the plan's faults, and
// which refuses to restart a worker once its permanent death has fired.
func (p *faultPlan) wrap(factory WorkerFactory) WorkerFactory {
	return func(w int) (transport.Client, error) {
		p.mu.Lock()
		gone := p.gone[w]
		p.mu.Unlock()
		if gone {
			return nil, errDownForGood
		}
		inner, err := factory(w)
		if err != nil {
			return nil, err
		}
		return &faultyClient{plan: p, worker: w, inner: inner}, nil
	}
}

// faultyClient injects its worker's faults into segment calls, keyed on
// (worker, req.Seg.Round). Every other call, the run's closing release
// included, passes through unfaulted, so a plan's faults and the
// restarts they cost are the same whatever else the coordinator sends.
type faultyClient struct {
	plan   *faultPlan
	worker int
	inner  transport.Client
}

func (c *faultyClient) Close() error { return c.inner.Close() }

func (c *faultyClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if req.Seg == nil {
		return c.inner.Call(ctx, req)
	}
	f, ok := c.plan.next(c.worker, req.Seg.Round)
	if !ok {
		return c.inner.Call(ctx, req)
	}
	switch f.Kind {
	case MsgDrop:
		return nil, errDropped
	case MsgDelay:
		t := time.NewTimer(time.Duration(f.Count) * c.plan.delayUnit)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	case MsgDup:
		// Deliver twice; keep the second reply. A reply is a pure
		// function of its request, whatever the worker's stash holds, so
		// the duplicate is invisible — which is what the torture asserts.
		if _, err := c.inner.Call(ctx, req); err != nil {
			return nil, err
		}
	case MsgKill, MsgDown:
		c.inner.Close()
		return nil, errKilled
	}
	return c.inner.Call(ctx, req)
}

// predictSurvivors returns the island ids expected alive after a run of
// `rounds` rounds under the fault plan: an island dies exactly when its
// pinned worker (island i → worker i % workers) has a permanent death
// scheduled before the final round completes. This is the oracle the
// torture checks every faulted run against.
func predictSurvivors(faults []MsgFault, islands, workers, rounds int) []int {
	downFrom := make(map[int]int)
	for _, f := range faults {
		if f.Kind != MsgDown {
			continue
		}
		if cur, ok := downFrom[f.Worker]; !ok || f.Round < cur {
			downFrom[f.Worker] = f.Round
		}
	}
	var out []int
	for i := 0; i < islands; i++ {
		if dr, ok := downFrom[i%workers]; ok && dr < rounds {
			continue
		}
		out = append(out, i)
	}
	return out
}

// hasPermanentDeath reports whether the plan contains any MsgDown fault
// (i.e. whether a run under it is expected to degrade).
func hasPermanentDeath(faults []MsgFault) bool {
	for _, f := range faults {
		if f.Kind == MsgDown {
			return true
		}
	}
	return false
}

func TestMsgPlanDeterministicAndInRange(t *testing.T) {
	const n, workers, rounds = 64, 4, 8
	a := MsgPlan(7, n, workers, rounds)
	b := MsgPlan(7, n, workers, rounds)
	if len(a) != n {
		t.Fatalf("plan length %d, want %d", len(a), n)
	}
	kinds := map[MsgKind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		f := a[i]
		if f.Worker < 0 || f.Worker >= workers {
			t.Fatalf("fault %d worker %d out of range", i, f.Worker)
		}
		if f.Round < 0 || f.Round >= rounds {
			t.Fatalf("fault %d round %d out of range", i, f.Round)
		}
		if f.Count < 1 {
			t.Fatalf("fault %d count %d < 1", i, f.Count)
		}
		if f.Kind == MsgDrop && f.Count > 2 {
			t.Fatalf("drop count %d exceeds the retry-absorbable bound", f.Count)
		}
		if f.Kind == MsgDown && f.Worker == 0 {
			t.Fatal("permanent death planned for worker 0 (survivor guarantee broken)")
		}
		kinds[f.Kind]++
	}
	for k := MsgDrop; k < numMsgKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("64-fault plan contains no %v faults", k)
		}
	}
	c := MsgPlan(8, n, workers, rounds)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical message plans")
	}
}

func TestMsgPlanSingleWorkerNeverDownsIt(t *testing.T) {
	for _, f := range MsgPlan(3, 128, 1, 6) {
		if f.Kind == MsgDown {
			t.Fatalf("single-host plan contains %v", f)
		}
		if f.Worker != 0 {
			t.Fatalf("worker %d in a 1-worker plan", f.Worker)
		}
	}
}

// TestMsgPlanKnownAnswers pins the plans TestTortureSmall draws: its
// four cases (base seed 0x7041, 4 faults, 2 workers, 4 rounds) must keep
// meeting the same faults.
func TestMsgPlanKnownAnswers(t *testing.T) {
	want := []string{
		"[msg-delay@w0/r1 msg-drop@w1/r3 x2 msg-dup@w0/r1 msg-delay@w0/r2]",
		"[msg-delay@w0/r3 x2 msg-drop@w1/r3 x2 msg-dup@w0/r2 msg-delay@w0/r1]",
		"[worker-kill@w0/r3 worker-down@w1/r0 msg-drop@w0/r1 x2 worker-kill@w1/r1]",
		"[msg-drop@w0/r2 msg-dup@w0/r3 msg-delay@w1/r3 x3 worker-kill@w1/r0]",
	}
	for k, w := range want {
		seed := uint64(0x7041) + uint64(k)*0x9e3779b97f4a7c15
		if got := fmt.Sprint(MsgPlan(seed, faultsPerCase, 2, 4)); got != w {
			t.Errorf("case %d: plan %s, want %s", k, got, w)
		}
	}
}

func TestMsgKindStrings(t *testing.T) {
	want := map[MsgKind]string{
		MsgDrop:  "msg-drop",
		MsgDelay: "msg-delay",
		MsgDup:   "msg-dup",
		MsgKill:  "worker-kill",
		MsgDown:  "worker-down",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	f := MsgFault{Worker: 2, Round: 3, Kind: MsgDrop, Count: 2}
	if f.String() != "msg-drop@w2/r3 x2" {
		t.Errorf("fault string %q", f.String())
	}
}
