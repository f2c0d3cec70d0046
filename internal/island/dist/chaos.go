package dist

import (
	"sync"
	"time"

	"gridcma/internal/chaos"
)

// action is the per-call decision the injected fault plan hands the
// coordinator's transport stack.
type action int

const (
	actNone  action = iota
	actDrop         // the call is lost; fail without reaching the worker
	actDelay        // hold the call n delay units before forwarding
	actDup          // deliver the request twice, keep the second reply
	actKill         // the worker dies now; the call fails
)

// ChaosPlan interprets a chaos.MsgPlan for one run. Consumable faults
// (drop, delay, dup, transient kill) are keyed by (worker, round) and
// consumed call by call; permanent deaths (MsgDown) are persistent: every
// call to the worker from the fault's round onward is killed, and every
// restart in those rounds is refused. Keying on the *request's* round —
// not wall-clock arrival — is what makes a faulted run a pure function
// of (seed, plan): however goroutines interleave, the same calls meet
// the same faults.
type ChaosPlan struct {
	delayUnit time.Duration

	mu       sync.Mutex
	downFrom map[int]int               // worker → first permanently-down round
	pending  map[[2]int][]pendingFault // (worker, round) → consumable queue
}

type pendingFault struct {
	kind  chaos.MsgKind
	count int
}

// NewChaosPlan compiles faults into an injector. delayUnit scales
// MsgDelay counts (0 = 10ms).
func NewChaosPlan(faults []chaos.MsgFault, delayUnit time.Duration) *ChaosPlan {
	if delayUnit <= 0 {
		delayUnit = 10 * time.Millisecond
	}
	p := &ChaosPlan{
		delayUnit: delayUnit,
		downFrom:  make(map[int]int),
		pending:   make(map[[2]int][]pendingFault),
	}
	for _, f := range faults {
		if f.Kind == chaos.MsgDown {
			if cur, ok := p.downFrom[f.Worker]; !ok || f.Round < cur {
				p.downFrom[f.Worker] = f.Round
			}
			continue
		}
		n := f.Count
		if n < 1 {
			n = 1
		}
		key := [2]int{f.Worker, f.Round}
		p.pending[key] = append(p.pending[key], pendingFault{kind: f.Kind, count: n})
	}
	return p
}

// next consumes the fault (if any) governing one call to worker w in
// round r, returning the action and its count (delay units for actDelay).
func (p *ChaosPlan) next(w, r int) (action, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dr, ok := p.downFrom[w]; ok && r >= dr {
		return actKill, 0 // persistent: the worker is gone for good
	}
	key := [2]int{w, r}
	q := p.pending[key]
	if len(q) == 0 {
		return actNone, 0
	}
	f := q[0]
	switch f.kind {
	case chaos.MsgDrop:
		f.count--
		if f.count <= 0 {
			p.pending[key] = q[1:]
		} else {
			q[0] = f
		}
		return actDrop, 1
	case chaos.MsgDelay:
		p.pending[key] = q[1:]
		return actDelay, f.count
	case chaos.MsgDup:
		p.pending[key] = q[1:]
		return actDup, 1
	case chaos.MsgKill:
		p.pending[key] = q[1:]
		return actKill, 1
	}
	p.pending[key] = q[1:]
	return actNone, 0
}

// allowRestart reports whether a supervisor restart of worker w may
// succeed in round r (false once the worker is permanently down).
func (p *ChaosPlan) allowRestart(w, r int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	dr, ok := p.downFrom[w]
	return !ok || r < dr
}
