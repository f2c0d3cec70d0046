package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridcma/internal/schedule"
)

// Conn is the TCP JSONL transport: one connection, one in-flight call at
// a time (the coordinator serialises per worker), each message framed as
// a JSON header line plus a payload line (see the package doc). Any I/O
// error — including a deadline from the caller's context — poisons the
// stream mid-frame, so the connection closes and the supervisor redials;
// that maps a lost worker onto exactly the same Client behaviour as a
// killed Local.
type Conn struct {
	mu      sync.Mutex
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch []byte
	closed  atomic.Bool
}

// keepAlivePeriod is the TCP keepalive probe interval on every dialed
// and accepted transport connection. Coordinator↔worker and
// primary↔follower links sit idle between rounds for unbounded time; a
// half-open peer (yanked cable, frozen VM) would otherwise only be
// noticed at the next write's timeout. 30s detects it within about a
// minute without measurable probe traffic.
const keepAlivePeriod = 30 * time.Second

// enableKeepAlive turns on TCP keepalive probing for c, reporting
// whether it took effect (false for non-TCP conns such as net.Pipe).
func enableKeepAlive(c net.Conn) bool {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return false
	}
	if tc.SetKeepAlive(true) != nil {
		return false
	}
	return tc.SetKeepAlivePeriod(keepAlivePeriod) == nil
}

// Dial connects to an islandd worker or a replication primary, with TCP
// keepalives armed so a half-open peer is detected on idle links.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	d := net.Dialer{Timeout: timeout, KeepAlive: keepAlivePeriod}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	enableKeepAlive(c)
	return NewConn(c), nil
}

// NewConn wraps an established connection (test harnesses use net.Pipe).
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

// Call sends req and reads the matching response. The context deadline is
// applied to the whole exchange via the socket deadline.
func (c *Conn) Call(ctx context.Context, req *Request) (*Response, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if d, ok := ctx.Deadline(); ok {
		c.c.SetDeadline(d)
	} else {
		c.c.SetDeadline(time.Time{})
	}
	if err := c.writeRequest(req); err != nil {
		c.poison()
		return nil, err
	}
	resp, err := c.readResponse()
	if err != nil {
		c.poison()
		return nil, err
	}
	if resp.ID != req.ID {
		c.poison()
		return nil, fmt.Errorf("transport: response id %d for request %d", resp.ID, req.ID)
	}
	return resp, nil
}

// poison closes the underlying socket after a mid-stream failure.
func (c *Conn) poison() {
	c.closed.Store(true)
	c.c.Close()
}

// Close implements Client.
func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.c.Close()
}

func (c *Conn) writeRequest(req *Request) error {
	var pops []schedule.Schedule
	if req.Seg != nil {
		pops = req.Seg.Pop
	}
	var err error
	c.scratch, err = writeFrame(c.bw, req, req.Seg != nil, pops, req.Repl, c.scratch)
	return err
}

func (c *Conn) readResponse() (*Response, error) {
	hdr, err := readLine(c.br)
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := json.Unmarshal(hdr, &resp); err != nil {
		return nil, fmt.Errorf("transport: response header: %w", err)
	}
	pops, repl, err := readPayload(c.br, resp.Seg != nil)
	if err != nil {
		return nil, err
	}
	if resp.Seg != nil {
		n := len(pops) - 1
		if n < 0 {
			return nil, errors.New("transport: segment response payload without a best schedule")
		}
		// Best is copied out of the population's backing array: a
		// caller that keeps only the best schedule must not pin the
		// whole population.
		resp.Seg.Pop, resp.Seg.Best = pops[:n:n], pops[n].Clone()
	}
	resp.Repl = repl
	return &resp, nil
}

// noPayload is the payload line of a frame that carries neither a
// population nor a replication payload: the empty population.
var noPayload = []byte("[]")

// writeFrame writes and flushes one frame: hdr's JSON encoding, then the
// payload line. A segment frame's payload line is its population, in
// the AppendPops form, built in scratch (returned for reuse). Any other
// frame's is its repl bytes, written as they are, or noPayload when
// there are none.
func writeFrame(bw *bufio.Writer, hdr any, seg bool, pops []schedule.Schedule, repl, scratch []byte) ([]byte, error) {
	payload := noPayload
	switch {
	case seg:
		if len(repl) > 0 {
			return scratch, errors.New("transport: a segment frame carries no replication payload")
		}
		scratch = AppendPops(scratch[:0], pops)
		payload = scratch
	case len(repl) > 0:
		if bytes.IndexByte(repl, '\n') >= 0 || bytes.Equal(repl, noPayload) {
			return scratch, errors.New("transport: a replication payload must be one line other than []")
		}
		payload = repl
	}
	h, err := json.Marshal(hdr)
	if err != nil {
		return scratch, err
	}
	for _, b := range [][]byte{h, payload} {
		if _, err := bw.Write(b); err != nil {
			return scratch, err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return scratch, err
		}
	}
	return scratch, bw.Flush()
}

// readPayload reads a frame's payload line: the population of a segment
// frame, else the replication payload (nil for noPayload).
func readPayload(br *bufio.Reader, seg bool) ([]schedule.Schedule, []byte, error) {
	payload, err := readLine(br)
	if err != nil {
		return nil, nil, err
	}
	if seg {
		pops, err := ParsePops(payload)
		return pops, nil, err
	}
	if bytes.Equal(payload, noPayload) {
		return nil, nil, nil
	}
	return nil, payload, nil
}

func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		if errors.Is(err, io.EOF) && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return line[:len(line)-1], nil
}

// readRequest reads one framed request (header line + payload line).
// io.EOF before the header means the peer closed cleanly between calls.
func readRequest(br *bufio.Reader) (*Request, error) {
	hdr, err := readLine(br)
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(hdr, &req); err != nil {
		return nil, fmt.Errorf("transport: request header: %w", err)
	}
	pops, repl, err := readPayload(br, req.Seg != nil)
	if err != nil {
		return nil, err
	}
	if req.Seg != nil {
		req.Seg.Pop = pops
	}
	req.Repl = repl
	return &req, nil
}

// writeResponse frames and flushes one response, returning the reusable
// payload scratch buffer. A segment response's payload is its population
// followed by its best schedule.
func writeResponse(bw *bufio.Writer, resp *Response, scratch []byte) ([]byte, error) {
	var pops []schedule.Schedule
	if resp.Seg != nil {
		pops = append(slices.Clip(resp.Seg.Pop), resp.Seg.Best)
	}
	return writeFrame(bw, resp, resp.Seg != nil, pops, resp.Repl, scratch)
}
