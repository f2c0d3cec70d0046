// Package transport is the pluggable RPC layer of the distributed island
// engine (internal/island/dist): a coordinator calls workers through the
// Client interface, workers serve through Handler, and the two concrete
// transports — the in-process Local client, which the library's island
// engine and the tests run on, and the TCP JSONL connection for real
// multi-process runs (cmd/islandd) — carry the exact same protocol, so a
// run's result can never depend on which one it rode over.
//
// The island protocol is deliberately tiny: two calls, the segment and
// the release. A segment request is a pure function description —
// instance spec, base cMA configuration, seed, iteration count,
// population — and a reply depends on nothing else: whatever a worker
// keeps between calls is a cache it re-targets at the request. That is
// what makes the robustness story cheap: retrying a call, delivering it
// twice, or replaying it against a freshly restarted worker all produce
// the same bytes. A release names an instance spec and tells the worker
// that a run on it has ended, so it may drop that cache; it changes no
// later reply, only what the worker holds.
//
// Wire format (TCP): each message is two newline-terminated parts — a
// JSON header (everything but the payload) and a payload line.
// Responses mirror the shape. A segment message's payload line is its
// population: a JSON array of schedules, each an array of machine ids,
// in exactly the form AppendPops writes:
//
//	[[0,3,1],[2,2,0]]
//
// no whitespace, no leading zeros, every id an int. AppendPops encodes it
// without allocating once its buffer has grown, and ParsePops decodes it
// in one pass without reflection, into one flat backing array per
// population; any other byte sequence is rejected. A segment response's
// payload line holds its best schedule too, as one more element after
// the population: every schedule on the wire goes through this codec,
// never through reflection. Its header carries Fits, the per-individual
// fitness the worker computed on its final States, so the coordinator
// ranks migrants without re-evaluating the population.
//
// A release frame is its header and the empty population:
//
//	{"id":9,"kind":"release","instance":"2048x64:c_hihi:s1"}
//	[]
//
// and its reply is an empty Response.
//
// Any other message's payload line is its Repl bytes, moved verbatim in
// both directions and never scanned as JSON here: a replication pull
// response ships WAL records on it exactly as the primary's log holds
// them. A message with no payload writes "[]", the empty population, so
// error frames keep the segment protocol's form; a Repl payload is
// therefore one line and never "[]".
package transport

import (
	"context"
	"errors"
	"sync/atomic"

	"gridcma/internal/config"
	"gridcma/internal/schedule"
)

// Call kinds.
const (
	KindSegment = "segment"
	// KindRelease ends a run on Request.Instance: the worker drops what
	// it keeps for the run's next segment. Best effort; the reply is an
	// empty Response.
	KindRelease = "release"
	// KindReplPull asks a replication primary for the WAL events after a
	// sequence number; KindReplSnapshot bootstraps a follower too far
	// behind for the log alone. Payloads ride Request.Repl/Response.Repl
	// (schemas in internal/daemon), keeping this package free of daemon
	// types.
	KindReplPull     = "repl-pull"
	KindReplSnapshot = "repl-snapshot"
)

// Errors shared by the transports.
var (
	// ErrClosed: the client was closed (or its worker killed) and cannot
	// carry calls; the supervisor must restart/redial.
	ErrClosed = errors.New("transport: client closed")
)

// SegmentRequest describes one island segment as a pure function: run
// Iters iterations of the Config cMA on the Instance, seeded with Seed,
// starting from Pop (nil = fresh mesh). Island and Round are carried for
// observability and deterministic fault keying, and Island also names
// the worker's cached mesh for the island; neither influences the
// computation (Seed already encodes both via island.SegmentSeed).
type SegmentRequest struct {
	Instance string      `json:"instance"`
	Config   config.Spec `json:"config"`
	Island   int         `json:"island"`
	Round    int         `json:"round"`
	Iters    int         `json:"iters"`
	Seed     uint64      `json:"seed"`

	// Pop rides the frame's payload line (AppendPops), not the header.
	Pop []schedule.Schedule `json:"-"`
}

// SegmentResponse carries a segment's result and evolved population.
type SegmentResponse struct {
	Fitness  float64 `json:"fitness"`
	Makespan float64 `json:"makespan"`
	Flowtime float64 `json:"flowtime"`
	Evals    int64   `json:"evals"`

	// Best rides the payload line, after Pop.
	Best schedule.Schedule `json:"-"`
	// Fits[k] is the fitness of Pop[k], taken on the worker's final mesh
	// States (RefreshFlowtime, then Objective.Of): bit-identical to
	// Objective.Evaluate of Pop[k], and what the coordinator ranks
	// migrants by.
	Fits []float64 `json:"fits"`

	// Pop rides the payload line.
	Pop []schedule.Schedule `json:"-"`
}

// Request is one call from coordinator to worker.
type Request struct {
	ID   uint64          `json:"id"`
	Kind string          `json:"kind"`
	Seg  *SegmentRequest `json:"seg,omitempty"`
	// Instance is the spec a KindRelease call names.
	Instance string `json:"instance,omitempty"`
	// Repl carries the replication kinds' payload opaquely: the schemas
	// live with their only producer/consumer (internal/daemon), so the
	// transport stays a dumb pipe and adding a replication message never
	// touches the framing. It rides the payload line, not the header:
	// one line, never "[]" (see the package doc).
	Repl []byte `json:"-"`
}

// Response answers a Request. A non-empty Err is an application-level
// failure (bad instance spec, invalid config): the call reached the
// worker and deterministically cannot succeed, so callers must not
// retry it.
type Response struct {
	ID   uint64           `json:"id"`
	Err  string           `json:"err,omitempty"`
	Seg  *SegmentResponse `json:"seg,omitempty"`
	Repl []byte           `json:"-"` // as Request.Repl
}

// Client is the coordinator's side of a worker connection. Calls on one
// Client are serialised by the caller (the coordinator holds a per-worker
// lock); Close may race with Call.
type Client interface {
	Call(ctx context.Context, req *Request) (*Response, error)
	Close() error
}

// Handler is the worker's side: pure request → response. Implementations
// must be safe for concurrent calls.
type Handler interface {
	Handle(ctx context.Context, req *Request) (*Response, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req *Request) (*Response, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, req *Request) (*Response, error) {
	return f(ctx, req)
}

// Local is the in-process transport: calls invoke the handler directly
// on the caller's goroutine. It models a worker process closely enough
// for supervision tests — Kill makes every subsequent call fail with
// ErrClosed until the supervisor "restarts" the worker by building a new
// Local — while keeping failure-free runs free of real I/O, so the
// determinism contract can be tested at full speed.
type Local struct {
	h      Handler
	closed atomic.Bool
}

// NewLocal returns an open in-process client over h.
func NewLocal(h Handler) *Local { return &Local{h: h} }

// Call invokes the handler unless the client is closed or ctx is done.
func (l *Local) Call(ctx context.Context, req *Request) (*Response, error) {
	if l.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := l.h.Handle(ctx, req)
	if err != nil {
		return nil, err
	}
	if l.closed.Load() {
		// Killed mid-call: the reply is lost with the worker.
		return nil, ErrClosed
	}
	return resp, nil
}

// Close marks the client dead (idempotent): later calls fail with
// ErrClosed, and a call in flight loses its reply, as when a worker
// process dies.
func (l *Local) Close() error {
	l.closed.Store(true)
	return nil
}
