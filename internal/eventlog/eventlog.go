// Package eventlog defines the shared trace schema of the online
// scheduling stack: the append-only event stream a gridd daemon applies
// (and persists) and the export format of the gridsim discrete-event
// simulator, so a recorded simulation replays deterministically through
// the daemon and a daemon incident replays from a snapshot plus its log.
//
// The log is JSON lines — one event per line, in application order, each
// stamped with a strictly increasing sequence number. Events carry the
// inputs of the scheduler's deterministic state transition (job ids and
// workloads, machine ids and speeds) and, on an admission the daemon
// logged, the outcome of its local search (Event.Moves), so a replaying
// consumer applies the search's result instead of running it again. The
// timestamp field is informational (simulated or wall-clock time of the
// producer) and never feeds a transition, which is what makes "same
// snapshot + same log → bit-identical trajectory" a contract rather than
// an aspiration.
//
// # Durability format
//
// Every record written by a Writer carries a trailing "crc" field: the
// IEEE CRC-32 of the record's canonical encoding with the crc field
// itself excluded. The encoding is canonical because the Writer emits it
// byte-deterministically (fixed field order, omitted zero fields,
// shortest float form, no whitespace), and the reader accepts exactly
// that form and nothing else, decoding each record in one pass without
// reflection (ParseRecord). The checksum therefore covers the record's
// own bytes, and a record read from one log can be appended verbatim to
// another (Writer.AppendRecord): that is how replication ships the log.
// Records without a crc field (logs written before it existed) are
// tolerated and skip verification, but only in the canonical form.
//
// Corruption handling follows the torn-write rule of every
// write-ahead log: a record that fails to parse or checksum with
// nothing but it at the end of the log is a torn final write — Read
// returns a *TornTailError carrying the clean prefix and the byte
// offset to truncate at, and recovery continues from the prefix. The
// same failure with valid data after it cannot be a torn write; it is
// mid-log corruption and stays a hard error, because silently dropping
// interior events would break the replay contract far more subtly than
// refusing to start.
package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
)

// Type enumerates the event vocabulary.
type Type string

// The six event kinds of the online scheduling stack.
const (
	// Submit introduces one job: Job (id assigned by the producer,
	// 1-based) and Base (the per-job workload factor of the ETC model).
	Submit Type = "submit"
	// Join brings machine Mach (1-based id, never reused) online with
	// slowness multiplier Mult (≥ 1; 1 is fastest).
	Join Type = "join"
	// Leave takes machine Mach offline gracefully; its jobs are re-pooled
	// for the next admission.
	Leave Type = "leave"
	// Fail is Leave under failure semantics: same transition, but the
	// re-pooled jobs count as restarts.
	Fail Type = "fail"
	// Complete reports job Job finished. Mach, when set, names the
	// machine the producer ran it on — advisory only, since a replaying
	// consumer schedules independently and may have placed the job
	// elsewhere.
	Complete Type = "complete"
	// Admit closes an admission window: the scheduler places every
	// pending job and runs its warm-start improvement pass. Moves, when
	// present, is that pass's outcome, which a consumer applies in place
	// of the search.
	Admit Type = "admit"
)

// Event is one line of the log. Zero-valued fields are omitted from the
// encoding; Seq is assigned by the Writer.
type Event struct {
	Seq  uint64  `json:"seq,omitempty"`
	T    float64 `json:"t,omitempty"` // producer time, informational
	Type Type    `json:"type"`
	Job  uint64  `json:"job,omitempty"`
	Base float64 `json:"base,omitempty"`
	Mach uint64  `json:"mach,omitempty"`
	Mult float64 `json:"mult,omitempty"`
	// Moves is an admit's search outcome: each job whose machine the
	// admission's local search changed, with the machine the search left
	// it on, in strictly ascending job id. nil means absent, and the consumer
	// runs the search itself (gridsim traces, scripts, logs written
	// before the field existed); a non-nil empty list means the search
	// moved nothing. Only admit events carry it. The daemon stamps it on
	// every admit it logs.
	Moves []Move `json:"moves,omitzero"`
	// Crc is the IEEE CRC-32 of the record's canonical encoding with this
	// field excluded, stamped by the Writer. Zero means absent (old logs,
	// or hand-written events) and skips verification on read.
	Crc uint32 `json:"crc,omitempty"`
}

// Move is one entry of an admit's search outcome: job Job ended the
// admission on machine Mach. Its JSON form is the pair [job,mach].
type Move struct {
	Job, Mach uint64
}

// MarshalJSON writes m as [job,mach].
func (m Move) MarshalJSON() ([]byte, error) { return m.appendJSON(nil), nil }

// UnmarshalJSON reads the [job,mach] pair MarshalJSON writes.
func (m *Move) UnmarshalJSON(b []byte) error {
	var pair []uint64
	if err := json.Unmarshal(b, &pair); err != nil {
		return err
	}
	if len(pair) != 2 {
		return fmt.Errorf("eventlog: move %s, want [job,mach]", b)
	}
	m.Job, m.Mach = pair[0], pair[1]
	return nil
}

func (m Move) appendJSON(b []byte) []byte {
	b = append(b, '[')
	b = strconv.AppendUint(b, m.Job, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, m.Mach, 10)
	return append(b, ']')
}

// Validate reports the first structural error of e: unknown type, or a
// missing/invalid field for the type. It does not (and cannot) check
// consistency against scheduler state — that is the consumer's job.
func (e Event) Validate() error {
	// The comparisons are written !(x >= 1) so NaN payloads — which would
	// also break the JSON encoding — are rejected alongside out-of-range
	// ones; infinities are rejected explicitly.
	switch e.Type {
	case Submit:
		if e.Job == 0 {
			return fmt.Errorf("eventlog: submit without job id")
		}
		if !(e.Base >= 1) || math.IsInf(e.Base, 0) {
			return fmt.Errorf("eventlog: submit job %d base %v, want finite >= 1", e.Job, e.Base)
		}
	case Join:
		if e.Mach == 0 {
			return fmt.Errorf("eventlog: join without machine id")
		}
		if !(e.Mult >= 1) || math.IsInf(e.Mult, 0) {
			return fmt.Errorf("eventlog: join machine %d mult %v, want finite >= 1", e.Mach, e.Mult)
		}
	case Leave, Fail:
		if e.Mach == 0 {
			return fmt.Errorf("eventlog: %s without machine id", e.Type)
		}
	case Complete:
		if e.Job == 0 {
			return fmt.Errorf("eventlog: complete without job id")
		}
	case Admit:
		var last uint64
		for i, mv := range e.Moves {
			if mv.Job <= last || mv.Mach == 0 {
				return fmt.Errorf("eventlog: admit outcome entry %d [%d,%d]: want job ids strictly ascending from 1 and a machine id", i, mv.Job, mv.Mach)
			}
			last = mv.Job
		}
	default:
		return fmt.Errorf("eventlog: unknown event type %q", e.Type)
	}
	if e.Moves != nil && e.Type != Admit {
		return fmt.Errorf("eventlog: %s with a search outcome", e.Type)
	}
	if math.IsNaN(e.T) || math.IsInf(e.T, 0) {
		return fmt.Errorf("eventlog: %s with non-finite timestamp %v", e.Type, e.T)
	}
	return nil
}

// AppendJSON appends the canonical JSON encoding of e — fixed field
// order, zero fields omitted, shortest round-tripping float form, crc
// excluded — to b and returns the extended slice. This is the byte
// stream the crc field covers, and the form ParseEvents reads; it
// allocates only when b's capacity is exceeded.
func (e Event) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if e.Seq != 0 {
		b = append(b, `"seq":`...)
		b = strconv.AppendUint(b, e.Seq, 10)
		b = append(b, ',')
	}
	if e.T != 0 {
		b = append(b, `"t":`...)
		b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
		b = append(b, ',')
	}
	b = append(b, `"type":"`...)
	b = append(b, e.Type...)
	b = append(b, '"')
	if e.Job != 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendUint(b, e.Job, 10)
	}
	if e.Base != 0 {
		b = append(b, `,"base":`...)
		b = strconv.AppendFloat(b, e.Base, 'g', -1, 64)
	}
	if e.Mach != 0 {
		b = append(b, `,"mach":`...)
		b = strconv.AppendUint(b, e.Mach, 10)
	}
	if e.Mult != 0 {
		b = append(b, `,"mult":`...)
		b = strconv.AppendFloat(b, e.Mult, 'g', -1, 64)
	}
	if e.Moves != nil {
		b = append(b, `,"moves":[`...)
		for i, mv := range e.Moves {
			if i > 0 {
				b = append(b, ',')
			}
			b = mv.appendJSON(b)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// Writer appends events to a log, assigning sequence numbers and
// stamping each record with its CRC.
type Writer struct {
	bw      *bufio.Writer
	seq     uint64
	scratch []byte
}

// NewWriter wraps w as an event log writer starting at sequence 1.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// NewWriterAt wraps w continuing an existing log whose last applied
// sequence number is seq — the restore-from-snapshot path.
func NewWriterAt(w io.Writer, seq uint64) *Writer {
	return &Writer{bw: bufio.NewWriter(w), seq: seq}
}

// Append validates e, stamps the next sequence number and the record
// CRC, and writes one log line. The stamped event is returned so the
// caller can apply exactly what was persisted. Steady-state appends do
// not allocate: the encoding runs through a reused scratch buffer.
func (w *Writer) Append(e Event) (Event, error) {
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	w.seq++
	e.Seq = w.seq
	e.Crc = 0
	b := e.AppendJSON(w.scratch[:0])
	e.Crc = crc32.ChecksumIEEE(b)
	// Splice the crc in as the trailing field: the checksum covers every
	// byte before it.
	b = b[:len(b)-1]
	b = append(b, `,"crc":`...)
	b = strconv.AppendUint(b, uint64(e.Crc), 10)
	b = append(b, '}', '\n')
	w.scratch = b[:0]
	if _, err := w.bw.Write(b); err != nil {
		return Event{}, err
	}
	return e, nil
}

// AppendRecord writes line, the bytes ParseRecord decoded to e,
// verbatim as the next log line. It is the replication follower's
// append: its log stays byte-identical to the primary's without a
// re-encode. Any e.Seq but Seq()+1 is refused.
func (w *Writer) AppendRecord(e Event, line []byte) error {
	if e.Seq != w.seq+1 {
		return fmt.Errorf("eventlog: record seq %d, want %d", e.Seq, w.seq+1)
	}
	if _, err := w.bw.Write(line); err != nil {
		return err
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return err
	}
	w.seq = e.Seq
	return nil
}

// Seq returns the sequence number of the last appended event.
func (w *Writer) Seq() uint64 { return w.seq }

// Flush drains the write buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// TornTailError reports a log whose final record is torn: a partial or
// corrupt last write with nothing after it. It carries the clean prefix
// and the byte offset the log should be truncated at before appending
// resumes. Every earlier record parsed, checksummed and sequenced
// cleanly — the torn record is the only loss, and it was never
// acknowledged as durable by a Writer whose flush did not return.
type TornTailError struct {
	Events []Event // the clean prefix, in log order
	Offset int64   // byte offset where the torn record starts
	Line   int     // 1-based line number of the torn record
	Err    error   // what was wrong with the tail
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("eventlog: torn tail at line %d (byte %d) after %d clean events: %v",
		e.Line, e.Offset, len(e.Events), e.Err)
}

func (e *TornTailError) Unwrap() error { return e.Err }

// ParseRecord decodes and verifies one log record, a line without its
// terminator, that must follow sequence number last. It applies the
// checks Read applies to each line. The replication follower runs each
// shipped line through it once, then applies the event and appends the
// same bytes with Writer.AppendRecord.
func ParseRecord(line []byte, last uint64) (Event, error) {
	e, _, err := parseRecord(line, last)
	if err != nil {
		return Event{}, fmt.Errorf("eventlog: record: %w", err)
	}
	return e, nil
}

// parseRecord decodes and verifies one log record in a single pass
// (recScanner.record) over exactly the grammar Writer.Append emits,
// then applies the checks only a log record needs: Validate, the crc
// and the sequence order. Anything else is an error, so every accepted
// record is JSON that encoding/json decodes to the same Event.
// Steady-state calls do not allocate, except for an admit's non-empty
// search outcome, whose list is allocated once.
//
// seqHard reports whether a failure is a sequencing violation on an
// otherwise sound record — never attributable to a torn write, so
// always a hard error.
func parseRecord(rec []byte, last uint64) (e Event, seqHard bool, err error) {
	s := recScanner{b: rec}
	e, body, hasCRC := s.record()
	if s.err == nil && s.i != len(rec) {
		s.fail("want the end of the record")
	}
	if s.err != nil {
		return e, false, s.err
	}
	if err = e.Validate(); err != nil {
		return e, false, err
	}
	if !canonical(e, rec[:body]) {
		return e, false, errors.New("not in the canonical form the Writer emits")
	}
	if hasCRC {
		// The Writer splices the crc in over the encoding's closing brace.
		if want := crc32.Update(crc32.ChecksumIEEE(rec[:body]), crc32.IEEETable, closeBrace); want != e.Crc {
			return e, false, fmt.Errorf("crc mismatch: record %#x, computed %#x", e.Crc, want)
		}
	}
	if e.Seq <= last {
		// A complete, checksummed record with a non-advancing sequence
		// number is producer corruption, not a torn write.
		return e, true, fmt.Errorf("sequence %d not after %d", e.Seq, last)
	}
	return e, false, nil
}

// ParseEvents decodes an event batch — one record, or a "[" … "]" list
// of records joined by commas — appending the events to dst[:0]. Each
// record is in the canonical form AppendJSON writes, optionally with a
// trailing crc field, and nothing else may appear: no whitespace, no
// other key order, no zero field. ok is false for any other body; it
// may still be JSON, for a slower decoder to read. Whatever ParseEvents
// accepts, encoding/json decodes to the same events. Unlike a log
// record, an event need not Validate and its crc is not checked: the
// batch is a request, and its consumer validates what it applies.
// Steady-state calls do not allocate, except for an event's non-empty
// search outcome.
func ParseEvents(b []byte, dst []Event) (events []Event, ok bool) {
	dst = dst[:0]
	s := recScanner{b: b}
	if !s.lit(`[`) {
		e, ok := s.event()
		return append(dst, e), ok && s.i == len(b)
	}
	if s.lit(`]`) {
		return dst, s.i == len(b)
	}
	for {
		e, ok := s.event()
		if !ok {
			return dst, false
		}
		dst = append(dst, e)
		if !s.lit(`,`) {
			break
		}
	}
	return dst, s.lit(`]`) && s.i == len(b)
}

// ParseNumber decodes b if it spells a finite number in the strconv
// form AppendJSON writes, and reports whether it does. That form is
// also what encoding/json writes for magnitudes in [1e-4, 1e6).
func ParseNumber(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, false
	}
	var buf [32]byte
	return v, bytes.Equal(strconv.AppendFloat(buf[:0], v, 'g', -1, 64), b)
}

// event reads one record at the cursor and reports whether it is
// canonical.
func (s *recScanner) event() (Event, bool) {
	at := s.i
	e, body, _ := s.record()
	return e, s.err == nil && canonical(e, s.b[at:body])
}

// record reads one record of the grammar Writer.Append emits:
//
//	record = "{" [ `"seq":` uint "," ] [ `"t":` num "," ] `"type":"` word `"`
//	         [ `,"job":` uint ] [ `,"base":` num ] [ `,"mach":` uint ]
//	         [ `,"mult":` num ] [ `,"moves":[` [ move { "," move } ] "]" ]
//	         [ `,"crc":` uint32 ] "}"
//	move   = "[" uint "," uint "]"
//
// with no whitespace and word one of the six event types; a move is a
// (job id, machine id) pair of an admit's search outcome. body is the
// offset where the crc field, or the closing brace, starts: the record
// up to there is what canonical checks and what the crc covers.
func (s *recScanner) record() (e Event, body int, hasCRC bool) {
	s.want(`{`)
	if s.lit(`"seq":`) {
		e.Seq = s.uint()
		s.want(`,`)
	}
	if s.lit(`"t":`) {
		e.T = s.float()
		s.want(`,`)
	}
	s.want(`"type":"`)
	e.Type = s.word()
	s.want(`"`)
	if s.lit(`,"job":`) {
		e.Job = s.uint()
	}
	if s.lit(`,"base":`) {
		e.Base = s.float()
	}
	if s.lit(`,"mach":`) {
		e.Mach = s.uint()
	}
	if s.lit(`,"mult":`) {
		e.Mult = s.float()
	}
	if s.lit(`,"moves":[`) {
		e.Moves = s.moves()
	}
	body = s.i
	hasCRC = s.lit(`,"crc":`)
	if hasCRC {
		at := s.i
		c := s.uint()
		if c > math.MaxUint32 || s.i-at > 1 && s.b[at] == '0' {
			s.fail("want a canonical crc")
		}
		e.Crc = uint32(c)
	}
	s.want(`}`)
	return e, body, hasCRC
}

// canonical reports whether rec, a scanned record cut before its crc
// field or closing brace, is the AppendJSON encoding of the event it
// decoded to, byte for byte. That one check pins what the grammar
// leaves open: a zero field is omitted, never written, and each number
// takes the strconv form AppendJSON writes.
func canonical(e Event, rec []byte) bool {
	var buf [256]byte
	enc := e.AppendJSON(buf[:0])
	return len(enc) == len(rec)+1 && bytes.Equal(enc[:len(rec)], rec)
}

var closeBrace = []byte{'}'}

// recScanner is parseRecord's cursor. The first failure sticks: every
// later lit reports false and every later fail is ignored, so the parse
// runs straight through and reports where it first went wrong.
type recScanner struct {
	b   []byte
	i   int
	err error
}

// lit consumes l if the record continues with it.
func (s *recScanner) lit(l string) bool {
	if s.err != nil || len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

func (s *recScanner) want(l string) {
	if !s.lit(l) {
		s.fail("want " + l)
	}
}

func (s *recScanner) fail(msg string) {
	if s.err == nil {
		s.err = fmt.Errorf("byte %d: %s", s.i, msg)
	}
}

// uint reads a decimal unsigned integer.
func (s *recScanner) uint() uint64 {
	at := s.i
	var u uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if u > (math.MaxUint64-d)/10 {
			s.fail("integer out of range")
			return 0
		}
		u = u*10 + d
	}
	if s.i == at {
		s.fail("want an integer")
	}
	return u
}

// float reads a number: the run of bytes that may make up a JSON
// number, if strconv.ParseFloat accepts it. The canonical check then
// rejects every form AppendJSON would not write.
func (s *recScanner) float() float64 {
	at := s.i
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; !('0' <= c && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E') {
			break
		}
	}
	v, err := strconv.ParseFloat(string(s.b[at:s.i]), 64)
	if err != nil {
		s.i = at
		s.fail("want a finite number")
	}
	return v
}

// moves reads the moves of a search outcome and the list's closing
// bracket. The list is allocated once, at its length, and an empty one
// is non-nil: it is present.
func (s *recScanner) moves() []Move {
	if s.lit(`]`) {
		return []Move{}
	}
	n := 0
	if end := bytes.Index(s.b[s.i:], []byte("]]")); end >= 0 {
		n = bytes.Count(s.b[s.i:s.i+end], []byte("["))
	}
	mv := make([]Move, 0, n)
	for {
		s.want(`[`)
		job := s.uint()
		s.want(`,`)
		mach := s.uint()
		s.want(`]`)
		if s.err != nil {
			return nil
		}
		mv = append(mv, Move{Job: job, Mach: mach})
		if !s.lit(`,`) {
			break
		}
	}
	s.want(`]`)
	return mv
}

// word reads an event type up to its closing quote, mapped to its
// constant.
func (s *recScanner) word() Type {
	n := bytes.IndexByte(s.b[s.i:], '"')
	if s.err != nil || n < 0 {
		s.fail("want an event type")
		return ""
	}
	var t Type
	switch w := s.b[s.i : s.i+n]; string(w) {
	case string(Submit):
		t = Submit
	case string(Join):
		t = Join
	case string(Leave):
		t = Leave
	case string(Fail):
		t = Fail
	case string(Complete):
		t = Complete
	case string(Admit):
		t = Admit
	default:
		s.fail(fmt.Sprintf("unknown event type %q", w))
		return ""
	}
	s.i += n
	return t
}

// Read parses a whole log. Events must be valid, checksum clean (when a
// crc is present) and strictly increasing in sequence; blank lines are
// skipped. A corrupt or partial final record returns a *TornTailError
// carrying the clean prefix; corruption anywhere before the end is a
// hard error.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var out []Event
	var last uint64
	var off int64
	line := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, rerr
		}
		if len(raw) > 0 {
			line++
			recStart := off
			off += int64(len(raw))
			rec := bytes.TrimRight(raw, "\r\n")
			if len(rec) > 0 {
				e, seqHard, perr := parseRecord(rec, last)
				if perr != nil {
					if !seqHard && tailIsEmpty(br, rerr) {
						return out, &TornTailError{Events: out, Offset: recStart, Line: line, Err: perr}
					}
					return nil, fmt.Errorf("eventlog: line %d: %v", line, perr)
				}
				last = e.Seq
				out = append(out, e)
			}
		}
		if rerr == io.EOF {
			return out, nil
		}
	}
}

// tailIsEmpty reports whether nothing but whitespace follows the record
// that just failed — the condition under which the failure is a torn
// final write rather than mid-log corruption. rerr is the read error of
// the failed record's own line (io.EOF when the line was the
// unterminated end of the file).
func tailIsEmpty(br *bufio.Reader, rerr error) bool {
	if rerr == io.EOF {
		return true
	}
	for {
		b, err := br.ReadByte()
		if err != nil {
			return true
		}
		switch b {
		case '\n', '\r', ' ', '\t':
		default:
			return false
		}
	}
}

// Recover reads the log file at path, applying the torn-write rule in
// place: a torn final record is truncated off the file (so appends can
// resume cleanly after it) and the clean prefix is returned with
// torn=true. A missing file is an empty log. Mid-log corruption is
// returned as a hard error with the file untouched.
//
// A crash can also tear off exactly the final record's newline — the
// record parses and checksums clean but the file is unterminated, and a
// blind append would concatenate the next record onto its line. Recover
// repairs that case by appending the terminator; the record is kept (it
// persisted in full) and torn stays false.
func Recover(path string) (events []Event, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	events, err = Read(f)
	unterminated := false
	if st, serr := f.Stat(); serr == nil && st.Size() > 0 {
		var tail [1]byte
		if _, rerr := f.ReadAt(tail[:], st.Size()-1); rerr == nil && tail[0] != '\n' {
			unterminated = true
		}
	}
	f.Close()
	var tte *TornTailError
	if errors.As(err, &tte) {
		if terr := os.Truncate(path, tte.Offset); terr != nil {
			return nil, false, fmt.Errorf("eventlog: truncating torn tail of %s at %d: %v", path, tte.Offset, terr)
		}
		return tte.Events, true, nil
	}
	if err == nil && unterminated {
		af, aerr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if aerr != nil {
			return nil, false, fmt.Errorf("eventlog: terminating unterminated tail of %s: %v", path, aerr)
		}
		_, aerr = af.Write([]byte{'\n'})
		if cerr := af.Close(); aerr == nil {
			aerr = cerr
		}
		if aerr != nil {
			return nil, false, fmt.Errorf("eventlog: terminating unterminated tail of %s: %v", path, aerr)
		}
	}
	return events, false, err
}
