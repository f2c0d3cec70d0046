package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"

	"gridcma/internal/atomicfile"
	"gridcma/internal/eventlog"
	"gridcma/internal/transport"
)

// Daemon roles. A daemon is born a primary; NewReplicator demotes it to
// follower, and Promote flips it back with a bumped term.
const (
	rolePrimary int32 = iota
	roleFollower
)

// Replication batch rejection reasons (ReplBatch.Reject / ReplSnap.Reject).
const (
	// RejectStaleTerm: the request carried a term below the responder's —
	// the caller is behind and must adopt the responder's term first.
	RejectStaleTerm = "stale-term"
	// RejectFenced: the responder has seen a higher term than its own and
	// refuses to ship — it is a deposed primary in read-only mode.
	RejectFenced = "fenced"
	// RejectNotPrimary: the responder is a follower; only primaries ship.
	RejectNotPrimary = "not-primary"
	// RejectAhead: the puller claims more applied events than the
	// responder has — the two logs have diverged past what term fencing
	// caught, and shipping anything would make it worse.
	RejectAhead = "follower-ahead"
)

// ReplPull is the payload of a transport.KindReplPull request: ship the
// WAL events after sequence number After.
type ReplPull struct {
	// ID identifies the follower; the primary keys its WAL cursor on it
	// so a steady follower is served by streaming, not re-scanning.
	ID string `json:"id"`
	// Term is the follower's fencing term. A term above the primary's
	// fences the primary (it has been superseded); below it, the pull is
	// rejected until the follower adopts the newer term.
	Term  uint64 `json:"term"`
	After uint64 `json:"after"`
	Max   int    `json:"max,omitempty"`
}

// ReplBatch answers a pull. It ships WAL records verbatim: each of
// Records is one line of the primary's log, without its newline, as
// the primary's Follower verified it. On the wire (the transport
// frame's payload line) a batch is the JSON encoding of its other
// fields followed by each record after a tab:
//
//	{"term":1,"applied":9,"digest":"…","digest_seq":9}<TAB>{"seq":8,…}<TAB>{"seq":9,…}
//
// Neither json.Marshal output nor a WAL record ever holds a raw tab, so
// the split is exact, and no record passes through encoding/json on
// either side. The follower decodes each record once, with
// eventlog.ParseRecord.
type ReplBatch struct {
	Term   uint64 `json:"term"`
	Reject string `json:"reject,omitempty"`
	// NeedSnapshot: the primary's WAL cannot serve After+1 (the follower
	// is behind a snapshot-truncated log); bootstrap via KindReplSnapshot.
	NeedSnapshot bool     `json:"need_snapshot,omitempty"`
	Records      [][]byte `json:"-"`
	// Applied is the primary's applied sequence number at ship time —
	// the follower's lag is Applied minus its own.
	Applied uint64 `json:"applied"`
	// Digest is the primary's state digest after applying DigestSeq.
	// The primary stamps a batch only when Applied > 0 and the batch
	// ends at Applied (DigestSeq = Applied): a caught-up poll, or the
	// batch that catches a follower up. A batch cut short by Max carries
	// none. A follower at DigestSeq whose digest differs has diverged
	// and must stop rather than drift.
	Digest    string `json:"digest,omitempty"`
	DigestSeq uint64 `json:"digest_seq,omitempty"`
}

// recordSep ends a ReplBatch's JSON fields and each shipped record.
var recordSep = []byte{'\t'}

// marshal encodes b for the wire.
func (b *ReplBatch) marshal() ([]byte, error) {
	hdr, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	n := len(hdr)
	for _, rec := range b.Records {
		n += 1 + len(rec)
	}
	out := append(make([]byte, 0, n), hdr...)
	for _, rec := range b.Records {
		out = append(append(out, recordSep...), rec...)
	}
	return out, nil
}

// parseReplBatch decodes a pull response's payload. The records it
// returns alias payload.
func parseReplBatch(payload []byte) (*ReplBatch, error) {
	hdr, recs, found := bytes.Cut(payload, recordSep)
	var b ReplBatch
	if err := json.Unmarshal(hdr, &b); err != nil {
		return nil, err
	}
	if found {
		b.Records = bytes.Split(recs, recordSep)
	}
	return &b, nil
}

// ReplSnap answers a transport.KindReplSnapshot bootstrap request.
type ReplSnap struct {
	Term     uint64    `json:"term"`
	Reject   string    `json:"reject,omitempty"`
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

// loadTerm reads a persisted fencing term; a missing file is term 0.
func loadTerm(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	t, err := strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("daemon: term file %s: %v", path, err)
	}
	return t, nil
}

// saveTerm persists a fencing term atomically (atomicfile.Write): a
// crash mid-write must never roll a term back, or a deposed primary
// could be reborn believing it still leads.
func saveTerm(path string, term uint64) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", term)
		return err
	})
}

// --- Daemon replication surface ---------------------------------------

// Term returns the daemon's fencing term.
func (d *Daemon) Term() uint64 { return d.term.Load() }

// Fenced reports whether this node observed a higher term than its own
// and demoted itself to read-only.
func (d *Daemon) Fenced() bool { return d.fenced.Load() }

// Role returns "primary" or "follower".
func (d *Daemon) Role() string {
	if d.role.Load() == roleFollower {
		return "follower"
	}
	return "primary"
}

// fenceBy latches the read-only demotion after observing term t above
// our own. The node does NOT adopt t — the term belongs to the new
// primary; claiming it would recreate the split brain fencing exists to
// prevent.
func (d *Daemon) fenceBy(t uint64) {
	for {
		cur := d.fencedBy.Load()
		if cur >= t {
			break
		}
		if d.fencedBy.CompareAndSwap(cur, t) {
			break
		}
	}
	d.fenced.Store(true)
}

// adoptTerm raises the daemon's term to t (persisting it) if higher.
// Followers adopt their primary's term so a later promotion bumps past
// it.
func (d *Daemon) adoptTerm(t uint64) error {
	for {
		cur := d.term.Load()
		if t <= cur {
			return nil
		}
		if d.term.CompareAndSwap(cur, t) {
			break
		}
	}
	if d.termPath != "" {
		return saveTerm(d.termPath, t)
	}
	return nil
}

// AppliedSeq returns the grid's applied sequence number under the lock.
func (d *Daemon) AppliedSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.g.Applied()
}

// GridDigest returns the grid's state digest under the lock.
func (d *Daemon) GridDigest() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.g.Digest()
}

// SnapshotNow flushes the WAL and externalises the grid.
func (d *Daemon) SnapshotNow() (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flushLocked(false); err != nil {
		return nil, err
	}
	return d.g.Snapshot(), nil
}

// ApplyEvent applies one event through the daemon's full write path
// (WAL, the digest fold of a serving primary, group commit) and returns
// the stamped event. It is the programmatic twin of POST /event, used
// by the failover torture and the replication bench to drive a primary
// without HTTP. A returned admit's Moves hold until the next admission.
func (d *Daemon) ApplyEvent(e eventlog.Event) (eventlog.Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	stamped, err := d.applyLocked(e)
	if err != nil {
		return stamped, err
	}
	if err := d.commitLocked(); err != nil {
		d.walErrors.Add(1)
		return stamped, err
	}
	return stamped, nil
}

// ApplyReplicated applies an event shipped from the primary and appends
// line, the WAL record it was decoded from (eventlog.ParseRecord), to
// this node's WAL verbatim. The follower's WAL is then byte-identical to
// the primary's prefix by construction, and "promote then replay" is
// indistinguishable from "the primary never died". Only followers
// accept replicated writes.
func (d *Daemon) ApplyReplicated(e eventlog.Event, line []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("daemon: stopped")
	}
	if d.role.Load() != roleFollower {
		return errors.New("daemon: not a follower: replicated writes refused")
	}
	if err := d.g.Apply(e); err != nil {
		return err
	}
	if d.wal != nil {
		if err := d.wal.AppendRecord(e, line); err != nil {
			d.walErrors.Add(1)
			return fmt.Errorf("daemon: replicated event %d applied but not persisted: %w", e.Seq, err)
		}
	}
	return nil
}

// CommitReplicated is the follower's batch commit barrier: flush, plus
// fsync under FsyncAlways — the same durability the primary gave the
// batch when it first acknowledged it.
func (d *Daemon) CommitReplicated() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil || d.closed {
		return nil
	}
	if err := d.wal.Flush(); err != nil {
		return err
	}
	if d.cfg.Fsync == FsyncAlways {
		return d.walFile.Sync()
	}
	return nil
}

// flushApplied flushes the WAL and returns the applied sequence number
// read under the same lock, so every event it counts is in the file. A
// separate AppliedSeq call could count an event applied after the flush
// and still sitting in the write buffer. When 0 < applied <= reach (the
// last seq a pull can ship), it also returns the grid's digest at
// applied.
func (d *Daemon) flushApplied(reach uint64) (applied uint64, digest string, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal != nil && !d.closed {
		if err := d.wal.Flush(); err != nil {
			return 0, "", err
		}
	}
	applied = d.g.Applied()
	if applied > 0 && applied <= reach {
		digest = d.g.Digest()
	}
	return applied, digest, nil
}

// errBootstrapSave marks a ReplaceGrid that could not persist its
// snapshot: nothing changed, so the bootstrap may be retried.
var errBootstrapSave = errors.New("daemon: persisting bootstrap snapshot")

// ReplaceGrid swaps in g, restored from the bootstrap snapshot snap, and
// restarts the WAL from its applied sequence number: the events below
// the snapshot are gone from this node's log, exactly like a primary
// that snapshotted and rotated. Follower-only.
//
// A daemon with a WAL first saves snap beside it, at logSnapPath, so a
// restart can recover locally. The save runs under d.mu after the role
// check: done earlier, it could race Promote and leave a primary whose
// snapshot is ahead of its own WAL. It runs before the truncation, so a
// failed save returns an errBootstrapSave error with the grid and the
// WAL untouched, and a crash between the two leaves old events that
// ReplayFile skips as at or below the snapshot's seq.
func (d *Daemon) ReplaceGrid(g *Grid, snap *Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("daemon: stopped")
	}
	if d.role.Load() != roleFollower {
		return errors.New("daemon: not a follower: grid replacement refused")
	}
	if d.wal != nil {
		if err := d.wal.Flush(); err != nil {
			return err
		}
		if err := SaveSnapshot(snap, logSnapPath(d.cfg.LogPath)); err != nil {
			return fmt.Errorf("%w: %w", errBootstrapSave, err)
		}
		if err := d.walFile.Truncate(0); err != nil {
			return fmt.Errorf("daemon: truncating WAL for bootstrap: %w", err)
		}
		d.wal = eventlog.NewWriterAt(d.walFile, g.Applied())
	}
	d.g = g
	return nil
}

// setFollower demotes the daemon to follower and registers the
// replicator's promote hook; called by NewReplicator.
func (d *Daemon) setFollower(promote func() (uint64, error), maxLag uint64) {
	d.promoteMu.Lock()
	d.promoteFn = promote
	d.promoteMu.Unlock()
	d.replMaxLag.Store(maxLag)
	d.replCaught.Store(false)
	d.role.Store(roleFollower)
}

// promoteToPrimary is the role flip at failover: claim newTerm
// (persisted before the role changes hands — a promotion that cannot
// record its term must not serve), then start taking writes.
func (d *Daemon) promoteToPrimary(newTerm uint64) error {
	for {
		cur := d.term.Load()
		if newTerm <= cur {
			return fmt.Errorf("daemon: promotion term %d not above current %d", newTerm, cur)
		}
		if d.term.CompareAndSwap(cur, newTerm) {
			break
		}
	}
	if d.termPath != "" {
		if err := saveTerm(d.termPath, newTerm); err != nil {
			return fmt.Errorf("daemon: persisting promotion term: %w", err)
		}
	}
	d.replLag.Store(0)
	d.replCaught.Store(true)
	d.role.Store(rolePrimary)
	return nil
}

// Promote asks the follower's replicator to take over as primary,
// returning the new term. On a node that was never a follower it
// reports an error.
func (d *Daemon) Promote() (uint64, error) {
	d.promoteMu.Lock()
	fn := d.promoteFn
	d.promoteMu.Unlock()
	if fn == nil {
		return 0, errors.New("daemon: not a follower (no replicator attached)")
	}
	return fn()
}

func (d *Daemon) handlePromote(w http.ResponseWriter, r *http.Request) {
	term, err := d.Promote()
	if err != nil {
		httpError(w, http.StatusConflict, "promote: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"role":    d.Role(),
		"term":    term,
		"applied": d.AppliedSeq(),
	})
}

// --- ReplServer: the primary's shipping side ---------------------------

// ReplConfig parameterises a ReplServer.
type ReplConfig struct {
	// Batch caps events per pull response (0 = 512).
	Batch int
}

// ReplServer serves the primary's side of WAL-shipping replication as a
// transport.Handler: followers pull batches of WAL records (resumable by
// sequence number, streamed via a cached eventlog.Follower per follower
// and shipped as the log holds them), bootstrap from a snapshot when the
// log cannot serve their position, and get the primary's digest on
// every batch that ends at its applied seq. Term checking happens on
// every request — a pull carrying a higher term fences this node on the
// spot.
type ReplServer struct {
	d       *Daemon
	walPath string
	batch   int

	mu      sync.Mutex
	cursors map[string]*replCursor
	reads   uint64 // read calls so far: the clock of each cursor's lastRead
}

// maxReplCursors caps the open WAL cursors of one ReplServer. Each holds
// a file descriptor, and a follower that returns under a new ID, or any
// client of the replication port, opens another; past the cap the least
// recently read cursor is closed. An evicted follower's next pull
// reopens its cursor at its position, so eviction costs a seek, never
// correctness.
const maxReplCursors = 32

type replCursor struct {
	fl       *eventlog.Follower
	next     uint64 // sequence number the cursor will read next
	lastRead uint64 // ReplServer.reads at this cursor's latest read
}

// NewReplServer returns d's shipping handler; from then on d digests
// after every event it applies. The daemon must have a WAL (replication
// ships the log).
func NewReplServer(d *Daemon, cfg ReplConfig) (*ReplServer, error) {
	if d.cfg.LogPath == "" {
		return nil, errors.New("daemon: replication requires a WAL (ServerConfig.LogPath)")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 512
	}
	d.mu.Lock()
	d.serving = true
	d.mu.Unlock()
	return &ReplServer{
		d:       d,
		walPath: d.cfg.LogPath,
		batch:   cfg.Batch,
		cursors: make(map[string]*replCursor),
	}, nil
}

// Handle implements transport.Handler.
func (s *ReplServer) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	switch req.Kind {
	case transport.KindReplPull:
		var pull ReplPull
		if err := json.Unmarshal(req.Repl, &pull); err != nil {
			return nil, fmt.Errorf("daemon: repl-pull payload: %v", err)
		}
		batch, err := s.pull(&pull)
		if err != nil {
			return nil, err
		}
		b, err := batch.marshal()
		if err != nil {
			return nil, err
		}
		return &transport.Response{ID: req.ID, Repl: b}, nil
	case transport.KindReplSnapshot:
		var pull ReplPull
		if err := json.Unmarshal(req.Repl, &pull); err != nil {
			return nil, fmt.Errorf("daemon: repl-snapshot payload: %v", err)
		}
		snap, err := s.snapshot(&pull)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(snap)
		if err != nil {
			return nil, err
		}
		return &transport.Response{ID: req.ID, Repl: b}, nil
	default:
		return nil, fmt.Errorf("daemon: replication server: unknown kind %q", req.Kind)
	}
}

// checkTerm applies the fencing protocol shared by pulls and snapshot
// requests, returning a rejection reason ("" = proceed).
func (s *ReplServer) checkTerm(reqTerm uint64) string {
	myTerm := s.d.Term()
	if reqTerm > myTerm {
		// Someone with a newer term exists: this node is deposed. The
		// demotion latches — even if that someone never calls again.
		s.d.fenceBy(reqTerm)
		return RejectFenced
	}
	if s.d.Fenced() {
		return RejectFenced
	}
	if reqTerm < myTerm {
		return RejectStaleTerm
	}
	if s.d.role.Load() != rolePrimary {
		return RejectNotPrimary
	}
	return ""
}

func (s *ReplServer) pull(pull *ReplPull) (*ReplBatch, error) {
	myTerm := s.d.Term()
	if reject := s.checkTerm(pull.Term); reject != "" {
		return &ReplBatch{Term: myTerm, Reject: reject}, nil
	}
	max := s.batch
	if pull.Max > 0 && pull.Max < max {
		max = pull.Max
	}
	applied, digest, err := s.d.flushApplied(pull.After + uint64(max))
	if err != nil {
		return nil, err
	}
	if pull.After > applied {
		return &ReplBatch{Term: myTerm, Reject: RejectAhead, Applied: applied}, nil
	}
	// Ship no further than applied, so that a batch reaching it ends
	// exactly there, at the seq its digest belongs to.
	if n := applied - pull.After; n < uint64(max) {
		max = int(n)
	}
	recs, first, err := s.read(pull.ID, pull.After, max)
	if err != nil {
		return nil, err
	}
	// Gap detection: applied was read under the lock that flushed the
	// WAL, so if the follower sits below it the log must be able to serve
	// After+1. When it starts later (this primary was itself born from a
	// snapshot and its log is truncated below that point), log shipping
	// cannot bridge the gap — bootstrap instead.
	if (len(recs) == 0 && pull.After < applied) ||
		(len(recs) > 0 && first != pull.After+1) {
		s.dropCursor(pull.ID)
		return &ReplBatch{Term: myTerm, NeedSnapshot: true, Applied: applied}, nil
	}
	resp := &ReplBatch{Term: myTerm, Records: recs, Applied: applied}
	if digest != "" && pull.After+uint64(len(recs)) == applied {
		resp.Digest, resp.DigestSeq = digest, applied
	}
	return resp, nil
}

// read streams up to max records after seq from the WAL, reusing the
// follower's cursor when it is positioned right (the steady state: each
// pull resumes exactly where the last left off, so shipping is O(batch)
// per call, not O(log)). It returns the records, copied out of the
// cursor into one buffer of this call's own, and the first one's
// sequence number.
func (s *ReplServer) read(id string, after uint64, max int) (recs [][]byte, first uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cursors[id]
	if c == nil || c.next != after+1 {
		if c != nil {
			c.fl.Close()
		}
		if c == nil && len(s.cursors) >= maxReplCursors {
			s.evictLocked()
		}
		fl, err := eventlog.Follow(s.walPath, after)
		if err != nil {
			delete(s.cursors, id)
			return nil, 0, fmt.Errorf("daemon: opening WAL cursor for %q: %w", id, err)
		}
		c = &replCursor{fl: fl, next: after + 1}
		s.cursors[id] = c
	}
	s.reads++
	c.lastRead = s.reads
	var buf []byte
	var ends []int
	c.next = after + 1
	for len(ends) < max {
		e, ok, err := c.fl.Next()
		if err != nil {
			// The cursor is poisoned (mid-log corruption?): drop it so the
			// next pull re-opens, and surface the error to the follower.
			c.fl.Close()
			delete(s.cursors, id)
			return nil, 0, err
		}
		if !ok {
			break
		}
		if len(ends) == 0 {
			first = e.Seq
		}
		buf = append(buf, c.fl.Line()...)
		ends = append(ends, len(buf))
		// The cursor serves After = c.next-1 next time. An empty read
		// leaves it where it was; a gap (first record past after+1) is
		// the caller's to detect — it drops the cursor and answers
		// NeedSnapshot.
		c.next = e.Seq + 1
	}
	recs = make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		recs[i] = buf[start:end:end]
		start = end
	}
	return recs, first, nil
}

// evictLocked closes the least recently read cursor; s.mu held.
func (s *ReplServer) evictLocked() {
	var oldest string
	var c *replCursor
	for id, cur := range s.cursors {
		if c == nil || cur.lastRead < c.lastRead {
			oldest, c = id, cur
		}
	}
	c.fl.Close()
	delete(s.cursors, oldest)
}

func (s *ReplServer) dropCursor(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.cursors[id]; c != nil {
		c.fl.Close()
		delete(s.cursors, id)
	}
}

// Close releases every cached WAL cursor.
func (s *ReplServer) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.cursors {
		c.fl.Close()
		delete(s.cursors, id)
	}
}

func (s *ReplServer) snapshot(pull *ReplPull) (*ReplSnap, error) {
	myTerm := s.d.Term()
	if reject := s.checkTerm(pull.Term); reject != "" {
		return &ReplSnap{Term: myTerm, Reject: reject}, nil
	}
	snap, err := s.d.SnapshotNow()
	if err != nil {
		return nil, err
	}
	return &ReplSnap{Term: myTerm, Snapshot: snap}, nil
}
