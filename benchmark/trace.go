package main

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of one traced workload run in memory and writes
// them out when the benchmark ends. Spans are recorded by the benchmark's
// own wrappers around the public interfaces it calls; nothing inside the
// program under test is instrumented. A nil *tracer means an untraced run:
// the wrappers are simply not installed.
type tracer struct {
	workload string
	epoch    time.Time
	ids      atomic.Int64

	mu    sync.Mutex
	spans []span
	names []string         // span names by index
	index map[string]int32 // index of each span name
}

// span is one timed call at a layer boundary. Parent is the span that
// caused it; spans of one request (a solve, an HTTP request, an RPC)
// share Req. The name is an index into the tracer's names, which keeps
// spans free of pointers: the garbage collector need not scan the
// hundreds of thousands a traced run keeps.
type span struct {
	id, parent int64
	req        uint64
	name       int32
	start, end int64 // ns since the tracer's epoch
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), index: map[string]int32{}}
}

// nameLocked interns name; t.mu held.
func (t *tracer) nameLocked(name string) int32 {
	i, ok := t.index[name]
	if !ok {
		i = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = i
	}
	return i
}

// now is the span clock: nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span id, for a span that must be named as a parent
// before it ends.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores a span that started at start (a now() reading) and ends
// now; id 0 allocates a fresh id. It returns the span's duration.
func (t *tracer) record(id int64, name string, parent int64, req uint64, start int64) time.Duration {
	end := t.now()
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id, parent, req, t.nameLocked(name), start, end})
	t.mu.Unlock()
	return time.Duration(end - start)
}

// layerSum aggregates the spans of one name.
type layerSum struct {
	n    int64
	busy time.Duration
}

// sum returns the aggregate of every span named name.
func (t *tracer) sum(name string) layerSum {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s layerSum
	i, ok := t.index[name]
	if !ok {
		return s
	}
	for _, sp := range t.spans {
		if sp.name == i {
			s.n++
			s.busy += time.Duration(sp.end - sp.start)
		}
	}
	return s
}

// meanUs returns the mean span duration in microseconds (0 when none).
func (s layerSum) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return s.busy.Seconds() * 1e6 / float64(s.n)
}

// mark returns the number of spans recorded so far, for the functions
// below that look only at the spans recorded since.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// pairs returns, for every request id that has both a client span and a
// server span recorded since mark, the client's duration minus the
// server's: the time the request spent outside the server's handler.
// Request ids restart with every fresh client, hence the mark.
func (t *tracer) pairs(mark int, client string, server ...string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	handled := map[uint64]time.Duration{}
	for _, s := range t.spans[mark:] {
		if slices.Contains(server, t.names[s.name]) {
			handled[s.req] = time.Duration(s.end - s.start)
		}
	}
	var out []time.Duration
	for _, s := range t.spans[mark:] {
		if d, ok := handled[s.req]; ok && t.names[s.name] == client {
			out = append(out, time.Duration(s.end-s.start)-d)
		}
	}
	return out
}

// writeSpans writes every tracer's spans as JSON lines.
func writeSpans(w io.Writer, tracers []*tracer) error {
	type line struct {
		Workload string `json:"workload"`
		ID       int64  `json:"id"`
		Parent   int64  `json:"parent"`
		Req      uint64 `json:"req"`
		Name     string `json:"name"`
		Start    int64  `json:"start_ns"`
		End      int64  `json:"end_ns"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		t.mu.Lock()
		spans, names := t.spans, t.names
		t.mu.Unlock()
		for _, s := range spans {
			if err := enc.Encode(line{t.workload, s.id, s.parent, s.req, names[s.name], s.start, s.end}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
