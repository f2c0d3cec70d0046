package eventlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// followChunk is the read granularity of a Follower: large enough that a
// catch-up pass over a cold log is a handful of reads per megabyte,
// small enough that tailing a live log stays cheap.
const followChunk = 64 * 1024

// Follower is a tailing reader over a live event log: it returns each
// complete, verified record exactly once and reports "no more yet"
// instead of an error at the (possibly still-growing) end of the file.
// It is the WAL-shipping primitive of the replication layer — the
// primary follows its own log and streams what Next returns.
//
// Corruption handling mirrors Read's torn-write rule, adapted to a file
// something is still appending to. An unterminated tail can always be a
// write in flight, so it is never an error: Next leaves it unconsumed
// and returns ok=false until the terminator arrives (if the writer died
// mid-record, Recover on restart truncates it — a Follower never sees
// the record because it never completes). A newline-terminated record
// that fails to parse, checksum or sequence cleanly is different: the
// writer finished it, so it can only be real corruption, and Next
// returns a hard error.
//
// A Follower is not safe for concurrent use by multiple goroutines, but
// following a file while a Writer appends to it from another goroutine
// is the intended use: Next reads only committed bytes (up to the last
// newline) and never mutates the file.
type Follower struct {
	f      *os.File
	off    int64  // file offset of the first byte not yet in buf
	buf    []byte // read-ahead: committed bytes not yet returned
	last   uint64 // sequence number of the last record parsed
	skipTo uint64 // records at or below this seq are consumed silently
	lineNo int    // 1-based line number of the next record, for errors
	rec    []byte // the record Next last returned
}

// Follow opens a tailing reader over the log at path, positioned so the
// first event returned is the first one with sequence number greater
// than after. The skipped prefix is still parsed and verified — a
// follower resuming mid-log re-checks the bytes it rides over.
func Follow(path string, after uint64) (*Follower, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Follower{f: f, skipTo: after}, nil
}

// Line returns the verified record of the event Next last returned, as
// it stands in the log without its terminator. The bytes stay valid
// until the next call to Next; the caller copies what it keeps.
func (fl *Follower) Line() []byte { return fl.rec }

// Close releases the underlying file.
func (fl *Follower) Close() error { return fl.f.Close() }

// Next returns the next committed event past the resume point. ok=false
// with a nil error means the log holds no complete new record yet — the
// caller should retry after the writer makes progress. Errors are
// permanent: mid-log corruption, or a terminated record that fails
// verification.
func (fl *Follower) Next() (Event, bool, error) {
	for {
		nl := bytes.IndexByte(fl.buf, '\n')
		if nl < 0 {
			n, err := fl.fill()
			if err != nil {
				return Event{}, false, err
			}
			if n == 0 {
				// End of committed bytes. Whatever sits in buf is an
				// unterminated tail: a write in flight, not ours to judge.
				return Event{}, false, nil
			}
			continue
		}
		rec := bytes.TrimRight(fl.buf[:nl], "\r")
		fl.buf = fl.buf[nl+1:]
		fl.lineNo++
		if len(rec) == 0 {
			continue
		}
		e, _, err := parseRecord(rec, fl.last)
		if err != nil {
			// The record was newline-terminated: the writer completed it,
			// so this cannot be a torn write in progress.
			return Event{}, false, fmt.Errorf("eventlog: follow: line %d: %v", fl.lineNo, err)
		}
		fl.last = e.Seq
		if e.Seq <= fl.skipTo {
			continue
		}
		fl.rec = rec
		return e, true, nil
	}
}

// fill reads the next chunk of the file into buf, returning how many
// bytes arrived. It compacts buf first so a partial record carried
// across calls never grows the buffer beyond one record + one chunk.
func (fl *Follower) fill() (int, error) {
	if cap(fl.buf)-len(fl.buf) < followChunk {
		next := make([]byte, len(fl.buf), len(fl.buf)+followChunk)
		copy(next, fl.buf)
		fl.buf = next
	}
	n, err := fl.f.ReadAt(fl.buf[len(fl.buf):len(fl.buf)+followChunk], fl.off)
	fl.buf = fl.buf[:len(fl.buf)+n]
	fl.off += int64(n)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, err
	}
	return n, nil
}
