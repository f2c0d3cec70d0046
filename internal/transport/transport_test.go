package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/schedule"
)

// kindBare is a call kind that carries no payload. Kind is opaque to the
// transport, so the tests use it wherever a call needs no body.
const kindBare = "bare"

// echoHandler returns a canned segment response carrying the request's
// population back, so round-trip tests can check byte fidelity end to end.
func echoHandler() Handler {
	return HandlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		if req.Kind == kindBare {
			return &Response{ID: req.ID}, nil
		}
		return &Response{
			ID: req.ID,
			Seg: &SegmentResponse{
				Fitness:  3.25,
				Makespan: 17,
				Flowtime: 101.5,
				Evals:    42,
				Best:     schedule.Schedule{2, 0, 1},
				Pop:      req.Seg.Pop,
			},
		}, nil
	})
}

func testPops() []schedule.Schedule {
	return []schedule.Schedule{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 1, 1, 1},
	}
}

func TestAppendParsePopsRoundTrip(t *testing.T) {
	for _, pops := range [][]schedule.Schedule{nil, {}, testPops(), {{}}} {
		line := AppendPops(nil, pops)
		got, err := ParsePops(line)
		if err != nil {
			t.Fatalf("ParsePops(%q): %v", line, err)
		}
		want := pops
		if len(want) == 0 {
			want = nil
		}
		// Normalise empty inner schedules: JSON cannot distinguish nil
		// from empty, and the engine never ships empty schedules.
		if len(pops) == 1 && len(pops[0]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v -> %q -> %v", pops, line, got)
		}
	}
}

func TestParsePopsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "{not json", "[", "]", "[[]", "[]]", "[[1]", "[[1]]]", "[[1],]", "[,[1]]",
		"[[1,]]", "[[,1]]", "[[1,,2]]", "[[1][2]]", "[1]", "[[-]]", "[[01]]", "[[-01]]",
		"[[+1]]", "[[1.5]]", "[[1e3]]", "[[ 1]]", "[ [1]]", "[[1] ]", "[[1]]\n", "null",
		"[null]", "[[null]]", `[["1"]]`, "[[9223372036854775808]]", "[[-9223372036854775809]]",
		"[[99999999999999999999]]", "[[1]],[[2]]",
	} {
		if pops, err := ParsePops([]byte(bad)); err == nil {
			t.Errorf("ParsePops(%q) = %v, want an error", bad, pops)
		}
	}
	for line, want := range map[string][]schedule.Schedule{
		"[[-0]]": {{0}},
		fmt.Sprintf("[[%d,%d]]", math.MaxInt, math.MinInt): {{math.MaxInt, math.MinInt}},
		"[[],[7],[]]": {{}, {7}, {}},
	} {
		got, err := ParsePops([]byte(line))
		if err != nil || !slices.EqualFunc(got, want, func(x, y schedule.Schedule) bool { return slices.Equal(x, y) }) {
			t.Errorf("ParsePops(%q) = %v, %v; want %v", line, got, err, want)
		}
	}
}

// TestParsePopsSchedulesDoNotAlias: the schedules of one population
// share a backing array, so each must be capped at its own length —
// appending to one schedule must not overwrite its neighbour.
func TestParsePopsSchedulesDoNotAlias(t *testing.T) {
	pops, err := ParsePops([]byte("[[1,2],[3,4],[],[5]]"))
	if err != nil {
		t.Fatal(err)
	}
	for k := range pops {
		if cap(pops[k]) != len(pops[k]) {
			t.Fatalf("schedule %d has len %d, cap %d", k, len(pops[k]), cap(pops[k]))
		}
		pops[k] = append(pops[k], 9)
	}
	want := []schedule.Schedule{{1, 2, 9}, {3, 4, 9}, {9}, {5, 9}}
	if !reflect.DeepEqual(pops, want) {
		t.Fatalf("after appends: %v, want %v", pops, want)
	}
}

// islandPops is a population of the island-tcp shape: a 3×3 mesh of
// 2048-job schedules over 64 machines.
func islandPops() []schedule.Schedule {
	pops := make([]schedule.Schedule, 9)
	for i := range pops {
		s := make(schedule.Schedule, 2048)
		for j := range s {
			s[j] = (i*31 + j*j) % 64
		}
		pops[i] = s
	}
	return pops
}

// TestParsePopsAllocs pins the decoder's allocation budget: one flat
// backing array and one slice of schedule headers per population,
// whatever its size.
func TestParsePopsAllocs(t *testing.T) {
	line := AppendPops(nil, islandPops())
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParsePops(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ParsePops allocated %v times per population, want <= 2", allocs)
	}
}

// FuzzParsePops is the decoder's differential oracle: whatever the
// bytes, ParsePops must not panic; any line it accepts must also be
// accepted by encoding/json as [][]int with the same values (the
// decoder is a strict subset of JSON); and the AppendPops encoding of
// every accepted population must decode back to itself.
func FuzzParsePops(f *testing.F) {
	for _, pops := range [][]schedule.Schedule{nil, testPops(), {{}}, {{}, {7}, {}}, islandPops()[:2]} {
		f.Add(AppendPops(nil, pops))
	}
	for _, line := range []string{"{not json", "[[01]]", "[[-0]]", "[[1,]]", "[[1] ]", "[[9223372036854775807,-9223372036854775808]]", "[[9223372036854775808]]", "[null]"} {
		f.Add([]byte(line))
	}
	samePops := func(a []schedule.Schedule, b [][]int) bool {
		return slices.EqualFunc(a, b, func(x schedule.Schedule, y []int) bool { return slices.Equal(x, y) })
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		pops, err := ParsePops(line)
		if err != nil {
			return
		}
		var ref [][]int
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("ParsePops accepted %q, encoding/json rejects it: %v", line, err)
		}
		if !samePops(pops, ref) {
			t.Fatalf("%q: ParsePops %v, encoding/json %v", line, pops, ref)
		}
		enc := AppendPops(nil, pops)
		back, err := ParsePops(enc)
		if err != nil {
			t.Fatalf("AppendPops output %q rejected: %v", enc, err)
		}
		if !slices.EqualFunc(pops, back, func(x, y schedule.Schedule) bool { return slices.Equal(x, y) }) {
			t.Fatalf("%q round-tripped to %v", enc, back)
		}
	})
}

func TestLocalRoundTrip(t *testing.T) {
	c := NewLocal(echoHandler())
	resp, err := c.Call(context.Background(), &Request{ID: 7, Kind: KindSegment, Seg: &SegmentRequest{Pop: testPops()}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Seg == nil || !reflect.DeepEqual(resp.Seg.Pop, testPops()) {
		t.Fatalf("bad response: %+v", resp)
	}
}

func TestLocalClosedFailsFast(t *testing.T) {
	c := NewLocal(echoHandler())
	c.Close()
	if _, err := c.Call(context.Background(), &Request{ID: 1, Kind: kindBare}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestLocalKilledMidCallLosesReply(t *testing.T) {
	var c *Local
	h := HandlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		c.Close() // the worker dies while computing
		return &Response{ID: req.ID}, nil
	})
	c = NewLocal(h)
	if _, err := c.Call(context.Background(), &Request{ID: 1, Kind: kindBare}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed (reply must die with the worker)", err)
	}
}

// startServer serves h on a loopback listener.
func startServer(t *testing.T, h Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(h).Serve(ln)
	return ln.Addr().String()
}

func TestTCPRoundTrip(t *testing.T) {
	addr := startServer(t, echoHandler())
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := uint64(1); id <= 3; id++ {
		resp, err := c.Call(context.Background(), &Request{ID: id, Kind: KindSegment, Seg: &SegmentRequest{Instance: "x", Seed: 9, Pop: testPops()}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != id {
			t.Fatalf("response id %d for request %d", resp.ID, id)
		}
		if !reflect.DeepEqual(resp.Seg.Pop, testPops()) {
			t.Fatalf("population mangled in transit: %v", resp.Seg.Pop)
		}
		if !reflect.DeepEqual(resp.Seg.Best, schedule.Schedule{2, 0, 1}) {
			t.Fatalf("best schedule mangled in transit: %v", resp.Seg.Best)
		}
		if resp.Seg.Fitness != 3.25 || resp.Seg.Evals != 42 {
			t.Fatalf("scalar fields mangled: %+v", resp.Seg)
		}
	}
}

func TestTCPHandlerErrorBecomesResponseErr(t *testing.T) {
	addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		return nil, fmt.Errorf("boom %d", req.ID)
	}))
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(context.Background(), &Request{ID: 5, Kind: kindBare})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "boom 5" {
		t.Fatalf("handler error not carried: %+v", resp)
	}
}

func TestTCPDeadlinePoisonsConnection(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := startServer(t, HandlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		<-block
		return &Response{ID: req.ID}, nil
	}))
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, &Request{ID: 1, Kind: kindBare}); err == nil {
		t.Fatal("expected a deadline error")
	}
	// The stream died mid-frame: every later call must fail fast.
	if _, err := c.Call(context.Background(), &Request{ID: 2, Kind: kindBare}); !errors.Is(err, ErrClosed) {
		t.Fatalf("poisoned connection still accepted a call: %v", err)
	}
}

func TestTCPPartialFrameIsUnexpectedEOF(t *testing.T) {
	cli, srv := net.Pipe()
	done := make(chan error, 1)
	go func() {
		// Drain the request (net.Pipe is unbuffered), answer with half a
		// header, then die.
		go io.Copy(io.Discard, srv)
		srv.Write([]byte(`{"id":1`))
		srv.Close()
	}()
	c := NewConn(cli)
	defer c.Close()
	go func() {
		_, err := c.Call(context.Background(), &Request{ID: 1, Kind: kindBare})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error on a torn frame")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("torn frame hung the call")
	}
}

// TestFrameBytes pins the wire form of each frame kind. Segment and
// error frames are the ones islandd has always exchanged; a frame with
// no payload, such as a release and its reply, writes the empty
// population; a replication frame carries its payload verbatim on the
// payload line.
func TestFrameBytes(t *testing.T) {
	batch := replBatchPayload(t)
	for _, tc := range []struct {
		frame []byte
		want  string
	}{
		{encodeRequest(t, &Request{ID: 3, Kind: KindSegment, Seg: &SegmentRequest{Instance: "x", Seed: 9, Iters: 2, Pop: testPops()}}),
			"{\"id\":3,\"kind\":\"segment\",\"seg\":{\"instance\":\"x\",\"config\":{},\"island\":0,\"round\":0,\"iters\":2,\"seed\":9}}\n[[0,1,2,3],[3,2,1,0],[1,1,1,1]]\n"},
		{encodeRequest(t, &Request{ID: 5, Kind: KindSegment, Seg: &SegmentRequest{Instance: "x", Island: 1, Round: 3, Seed: 9, Iters: 2, Pop: []schedule.Schedule{{10, 99, 100, 7, 0}}}}),
			"{\"id\":5,\"kind\":\"segment\",\"seg\":{\"instance\":\"x\",\"config\":{},\"island\":1,\"round\":3,\"iters\":2,\"seed\":9}}\n[[10,99,100,7,0]]\n"},
		{encodeRequest(t, &Request{ID: 1, Kind: kindBare}), "{\"id\":1,\"kind\":\"bare\"}\n[]\n"},
		{encodeRequest(t, &Request{ID: 6, Kind: KindRelease, Instance: "2048x64:c_hihi:s1"}), "{\"id\":6,\"kind\":\"release\",\"instance\":\"2048x64:c_hihi:s1\"}\n[]\n"},
		{encodeResponse(t, &Response{ID: 6}), "{\"id\":6}\n[]\n"},
		{encodeResponse(t, &Response{ID: 7, Seg: &SegmentResponse{Fitness: 3.25, Makespan: 17, Flowtime: 101.5, Evals: 42, Best: schedule.Schedule{2, 0, 1}, Fits: []float64{1.5, 2}, Pop: testPops()}}),
			"{\"id\":7,\"seg\":{\"fitness\":3.25,\"makespan\":17,\"flowtime\":101.5,\"evals\":42,\"fits\":[1.5,2]}}\n[[0,1,2,3],[3,2,1,0],[1,1,1,1],[2,0,1]]\n"},
		{encodeResponse(t, &Response{ID: 2, Err: "dist: unknown instance"}), "{\"id\":2,\"err\":\"dist: unknown instance\"}\n[]\n"},
		{encodeRequest(t, &Request{ID: 4, Kind: KindReplPull, Repl: []byte(`{"after":12}`)}), "{\"id\":4,\"kind\":\"repl-pull\"}\n{\"after\":12}\n"},
		{encodeResponse(t, &Response{ID: 4, Repl: batch}), "{\"id\":4}\n" + string(batch) + "\n"},
	} {
		if string(tc.frame) != tc.want {
			t.Errorf("frame %q, want %q", tc.frame, tc.want)
		}
	}
	for _, repl := range []string{"[]", "{\"a\":1}\n{}"} {
		if _, err := writeResponse(bufio.NewWriter(io.Discard), &Response{ID: 1, Repl: []byte(repl)}, nil); err == nil {
			t.Errorf("replication payload %q framed; it cannot read back", repl)
		}
	}
	c := &Conn{br: bufio.NewReader(strings.NewReader("{\"id\":7,\"seg\":{}}\n[]\n"))}
	if _, err := c.readResponse(); err == nil || !strings.Contains(err.Error(), "best") {
		t.Errorf("a segment response without a best schedule read back: %v", err)
	}
}

// replBatchPayload is a replication pull response payload as a primary
// ships it: the batch's JSON fields, then three WAL records, each after
// a tab.
func replBatchPayload(t testing.TB) []byte {
	t.Helper()
	var wal bytes.Buffer
	w := eventlog.NewWriterAt(&wal, 6)
	for _, e := range []eventlog.Event{
		{Type: eventlog.Join, Mach: 2, Mult: 1.5},
		{Type: eventlog.Submit, Job: 4, Base: 3.25, T: 0.5},
		{Type: eventlog.Admit},
	} {
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"term":2,"applied":9,"digest":"sha256:5f3c","digest_seq":9}`)
	for _, rec := range bytes.Split(bytes.TrimSuffix(wal.Bytes(), []byte{'\n'}), []byte{'\n'}) {
		payload = append(append(payload, '\t'), rec...)
	}
	return payload
}

// encodeRequest frames req exactly as Conn.Call puts it on the wire.
func encodeRequest(t testing.TB, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := &Conn{bw: bufio.NewWriter(&buf)}
	if err := c.writeRequest(req); err != nil {
		t.Fatalf("writeRequest(%+v): %v", req, err)
	}
	return buf.Bytes()
}

// FuzzReadRequest feeds arbitrary bytes to the server's frame reader,
// the first code that touches network bytes on an islandd worker or a
// gridd replication primary. It must
// never panic, and a request it accepts must re-encode through
// writeRequest and read back equal — same header, same population —
// with the re-encoding a fixed point. The corpus is seeded with the
// frames of the round-trip tests plus two replication payloads (a pull
// and a multi-record batch), a release, a torn header and a garbage
// payload.
func FuzzReadRequest(f *testing.F) {
	for _, req := range []*Request{
		{ID: 1, Kind: kindBare},
		{ID: 7, Kind: KindSegment, Seg: &SegmentRequest{Pop: testPops()}},
		{ID: 3, Kind: KindSegment, Seg: &SegmentRequest{Instance: "x", Seed: 9, Pop: testPops()}},
		{ID: 4, Kind: KindReplPull, Repl: json.RawMessage(`{"after":12,"max":64}`)},
		{ID: 5, Kind: KindReplPull, Repl: replBatchPayload(f)},
		{ID: 6, Kind: KindRelease, Instance: "2048x64:c_hihi:s1"},
	} {
		f.Add(encodeRequest(f, req))
	}
	f.Add([]byte(`{"id":1`))
	f.Add([]byte("{\"id\":2,\"kind\":\"segment\",\"seg\":{}}\n{not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		frame := encodeRequest(t, req)
		back, err := readRequest(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("re-encoded frame %q rejected: %v", frame, err)
		}
		h1, err1 := json.Marshal(req)
		h2, err2 := json.Marshal(back)
		if err1 != nil || err2 != nil || !bytes.Equal(h1, h2) {
			t.Fatalf("header %s read back as %s (%v, %v)", h1, h2, err1, err2)
		}
		// Populations compare as the wire sees them: JSON cannot tell a
		// nil schedule from an empty one.
		samePops := func() bool {
			return slices.EqualFunc(req.Seg.Pop, back.Seg.Pop, func(x, y schedule.Schedule) bool { return slices.Equal(x, y) })
		}
		if (req.Seg == nil) != (back.Seg == nil) || req.Seg != nil && !samePops() {
			t.Fatalf("request %+v read back as %+v", req, back)
		}
		if again := encodeRequest(t, back); !bytes.Equal(again, frame) {
			t.Fatalf("re-encoding is not a fixed point: %q then %q", frame, again)
		}
	})
}

// encodeResponse frames resp exactly as a worker's writeResponse puts it
// on the wire.
func encodeResponse(t testing.TB, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeResponse(bufio.NewWriter(&buf), resp, nil); err != nil {
		t.Fatalf("writeResponse(%+v): %v", resp, err)
	}
	return buf.Bytes()
}

// FuzzReadResponse is FuzzReadRequest's coordinator-side twin: arbitrary
// bytes through Conn.readResponse, the reader of every frame a worker or
// a replication primary sends back. It must never panic, and a response
// it accepts must re-encode through writeResponse and read back equal —
// same header, same population, same best schedule — with the
// re-encoding a fixed point. The corpus is seeded with a segment result,
// a bare reply, a worker error, two replication payloads (one a real
// multi-record batch), a torn header and a garbage payload.
func FuzzReadResponse(f *testing.F) {
	for _, resp := range []*Response{
		{ID: 7, Seg: &SegmentResponse{Fitness: 3.25, Makespan: 17, Flowtime: 101.5, Evals: 42, Best: schedule.Schedule{2, 0, 1}, Pop: testPops()}},
		{ID: 1},
		{ID: 2, Err: "dist: unknown instance"},
		{ID: 4, Repl: json.RawMessage(`{"records":[],"digest":"00"}`)},
		{ID: 5, Repl: replBatchPayload(f)},
	} {
		f.Add(encodeResponse(f, resp))
	}
	f.Add([]byte(`{"id":1`))
	f.Add([]byte("{\"id\":2,\"seg\":{\"best\":[1]}}\n{not json\n"))
	read := func(frame []byte) (*Response, error) {
		c := &Conn{br: bufio.NewReader(bytes.NewReader(frame))}
		return c.readResponse()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := read(data)
		if err != nil {
			return
		}
		frame := encodeResponse(t, resp)
		back, err := read(frame)
		if err != nil {
			t.Fatalf("re-encoded frame %q rejected: %v", frame, err)
		}
		h1, err1 := json.Marshal(resp)
		h2, err2 := json.Marshal(back)
		if err1 != nil || err2 != nil || !bytes.Equal(h1, h2) {
			t.Fatalf("header %s read back as %s (%v, %v)", h1, h2, err1, err2)
		}
		// Populations and best schedules compare as the wire sees them:
		// the payload cannot tell a nil schedule from an empty one.
		samePops := func() bool {
			return slices.EqualFunc(resp.Seg.Pop, back.Seg.Pop, func(x, y schedule.Schedule) bool { return slices.Equal(x, y) }) &&
				slices.Equal(resp.Seg.Best, back.Seg.Best)
		}
		if (resp.Seg == nil) != (back.Seg == nil) || resp.Seg != nil && !samePops() {
			t.Fatalf("response %+v read back as %+v", resp, back)
		}
		if again := encodeResponse(t, back); !bytes.Equal(again, frame) {
			t.Fatalf("re-encoding is not a fixed point: %q then %q", frame, again)
		}
	})
}

// BenchmarkMigrantEncode guards the migration hot path's encoder:
// appending a full population payload must not allocate once the buffer
// has grown.
func BenchmarkMigrantEncode(b *testing.B) {
	pops := make([]schedule.Schedule, 16)
	for i := range pops {
		s := make(schedule.Schedule, 512)
		for j := range s {
			s[j] = (i * j) % 16
		}
		pops[i] = s
	}
	buf := AppendPops(nil, pops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendPops(buf[:0], pops)
	}
	_ = buf
}
