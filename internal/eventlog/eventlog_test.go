package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	events := []Event{
		{Type: Join, Mach: 1, Mult: 1},
		{Type: Join, Mach: 2, Mult: 2.718281828459045},
		{Type: Submit, Job: 1, Base: 3.141592653589793, T: 0.25},
		{Type: Submit, Job: 2, Base: 1},
		{Type: Admit, T: 1},
		{Type: Admit, Moves: []Move{}},
		{Type: Admit, Moves: []Move{{Job: 1, Mach: 2}, {Job: 2, Mach: 1}}},
		{Type: Complete, Job: 1, Mach: 2},
		{Type: Fail, Mach: 2},
		{Type: Leave, Mach: 1},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if _, err := w.Append(e); err != nil {
			t.Fatalf("append %v: %v", e, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Crc == 0 {
			t.Errorf("event %d came back without a crc", i)
		}
		want := events[i]
		want.Seq = e.Seq
		// Floats must round-trip exactly: the replay contract depends on
		// the log reproducing every workload and multiplier bit.
		if e.Type != want.Type || e.Job != want.Job || e.Mach != want.Mach ||
			math.Float64bits(e.Base) != math.Float64bits(want.Base) ||
			math.Float64bits(e.Mult) != math.Float64bits(want.Mult) ||
			math.Float64bits(e.T) != math.Float64bits(want.T) ||
			!reflect.DeepEqual(e.Moves, want.Moves) {
			t.Errorf("event %d: got %+v, want %+v", i, e, want)
		}
	}
}

// TestCanonicalEncodingIsValidJSON pins the hand-rolled encoder against
// encoding/json: every record the Writer emits must parse back to the
// event it encoded, bit for bit, including awkward float forms.
func TestCanonicalEncodingIsValidJSON(t *testing.T) {
	cases := []Event{
		{Seq: 1, Type: Admit},
		{Seq: 42, Type: Submit, Job: 7, Base: 1 + 1e-15, T: 2e-07},
		{Seq: 43, Type: Submit, Job: 8, Base: 1e18, T: 1e21},
		{Seq: 44, Type: Join, Mach: 3, Mult: 1.0000000000000002},
		{Seq: 45, Type: Complete, Job: 7, Mach: 3, T: 0.1234567890123456},
		{Seq: 46, Type: Admit, Moves: []Move{}},
		{Seq: 47, Type: Admit, T: 3, Moves: []Move{{Job: 7, Mach: 3}, {Job: 1 << 63, Mach: 1}}},
	}
	for _, want := range cases {
		raw := want.AppendJSON(nil)
		var got Event
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("canonical encoding %s does not parse: %v", raw, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || got.Job != want.Job || got.Mach != want.Mach ||
			math.Float64bits(got.Base) != math.Float64bits(want.Base) ||
			math.Float64bits(got.Mult) != math.Float64bits(want.Mult) ||
			math.Float64bits(got.T) != math.Float64bits(want.T) ||
			!reflect.DeepEqual(got.Moves, want.Moves) {
			t.Errorf("round trip of %+v through %s came back %+v", want, raw, got)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Event{
		{Type: "bogus"},
		{Type: Submit, Base: 2},                        // no job id
		{Type: Submit, Job: 1, Base: 0.5},              // base < 1
		{Type: Submit, Job: 1, Base: math.NaN()},       // NaN base
		{Type: Submit, Job: 1, Base: math.Inf(1)},      // Inf base
		{Type: Join, Mult: 1},                          // no machine id
		{Type: Join, Mach: 1, Mult: 0.2},               // mult < 1
		{Type: Join, Mach: 1, Mult: math.NaN()},        // NaN mult
		{Type: Leave},                                  // no machine id
		{Type: Complete},                               // no job id
		{Type: Admit, T: math.Inf(-1)},                 // non-finite timestamp
		{Type: Submit, Job: 1, Base: 2, T: math.NaN()}, // NaN timestamp
		// Search outcomes: only on an admit, job ids strictly ascending
		// from 1, machine ids from 1.
		{Type: Submit, Job: 1, Base: 2, Moves: []Move{}},
		{Type: Join, Mach: 1, Mult: 1, Moves: []Move{{Job: 1, Mach: 1}}},
		{Type: Admit, Moves: []Move{{Job: 2, Mach: 1}, {Job: 1, Mach: 1}}},
		{Type: Admit, Moves: []Move{{Job: 1, Mach: 1}, {Job: 1, Mach: 2}}},
		{Type: Admit, Moves: []Move{{Job: 0, Mach: 1}}},
		{Type: Admit, Moves: []Move{{Job: 1, Mach: 0}}},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid event", e)
		}
		if _, err := NewWriter(&bytes.Buffer{}).Append(e); err == nil {
			t.Errorf("Append(%+v) accepted an invalid event", e)
		}
	}
}

// TestReadRejectsNonCanonical: the reader accepts exactly the form the
// Writer emits. Each record below is one edit away from a canonical
// one, most of them still valid JSON with the same values, and each is
// rejected — through ParseRecord, Read and Follow alike.
func TestReadRejectsNonCanonical(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append(Event{Type: Submit, Job: 3, Base: 1.5, T: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stamped := strings.TrimSuffix(buf.String(), "\n")
	const plain = `{"seq":1,"t":0.5,"type":"submit","job":3,"base":1.5}`
	for _, ok := range []string{plain, stamped} {
		if _, err := ParseRecord([]byte(ok), 0); err != nil {
			t.Fatalf("canonical %s rejected: %v", ok, err)
		}
	}
	const admit = `{"seq":1,"type":"admit","moves":[[3,1],[5,2]]}`
	if _, err := ParseRecord([]byte(admit), 0); err != nil {
		t.Fatalf("canonical %s rejected: %v", admit, err)
	}
	bad := map[string]string{
		"space in moves":      `{"seq":1,"type":"admit","moves":[[3,1], [5,2]]}`,
		"space in a move":     `{"seq":1,"type":"admit","moves":[[3, 1],[5,2]]}`,
		"leading zero move":   `{"seq":1,"type":"admit","moves":[[03,1],[5,2]]}`,
		"move triple":         `{"seq":1,"type":"admit","moves":[[3,1,4],[5,2]]}`,
		"move object":         `{"seq":1,"type":"admit","moves":[{"job":3,"mach":1}]}`,
		"trailing move comma": `{"seq":1,"type":"admit","moves":[[3,1],]}`,
		"null moves":          `{"seq":1,"type":"admit","moves":null}`,
		"moves before mult":   `{"seq":1,"type":"join","mach":1,"moves":[],"mult":1}`,
		"moves on a join":     `{"seq":1,"type":"join","mach":1,"mult":1,"moves":[]}`,
		"descending moves":    `{"seq":1,"type":"admit","moves":[[5,2],[3,1]]}`,
		"space after comma":   `{"seq":1, "t":0.5,"type":"submit","job":3,"base":1.5}`,
		"space after brace":   `{ "seq":1,"t":0.5,"type":"submit","job":3,"base":1.5}`,
		"space after colon":   `{"seq": 1,"t":0.5,"type":"submit","job":3,"base":1.5}`,
		"trailing space":      plain + " ",
		"tab in crc record":   strings.Replace(stamped, `,"crc"`, "\t,\"crc\"", 1),
		"seq after t":         `{"t":0.5,"seq":1,"type":"submit","job":3,"base":1.5}`,
		"base before job":     `{"seq":1,"t":0.5,"type":"submit","base":1.5,"job":3}`,
		"crc not last":        `{"seq":1,"crc":5,"type":"admit"}`,
		"duplicated seq":      `{"seq":1,"seq":1,"t":0.5,"type":"submit","job":3,"base":1.5}`,
		"duplicated job":      `{"seq":1,"t":0.5,"type":"submit","job":3,"job":3,"base":1.5}`,
		"unknown field":       `{"seq":1,"t":0.5,"type":"submit","job":3,"base":1.5,"x":1}`,
		"1.0":                 `{"seq":1,"t":0.5,"type":"submit","job":3,"base":1.0}`,
		"1.50":                `{"seq":1,"t":0.5,"type":"submit","job":3,"base":1.50}`,
		"exponent form":       `{"seq":1,"t":5e-1,"type":"submit","job":3,"base":1.5}`,
		"explicit zero field": `{"seq":1,"t":0.5,"type":"submit","job":3,"base":1.5,"mach":0}`,
		"leading zero seq":    `{"seq":01,"t":0.5,"type":"submit","job":3,"base":1.5}`,
		"leading zero job":    `{"seq":1,"t":0.5,"type":"submit","job":03,"base":1.5}`,
		"leading zero crc":    strings.Replace(stamped, `"crc":`, `"crc":0`, 1),
		"upper-case type":     `{"seq":1,"t":0.5,"type":"Submit","job":3,"base":1.5}`,
		"escaped type":        `{"seq":1,"t":0.5,"type":"\u0073ubmit","job":3,"base":1.5}`,
		"trailing comma":      `{"seq":1,"t":0.5,"type":"submit","job":3,"base":1.5,}`,
	}
	for name, rec := range bad {
		if _, err := ParseRecord([]byte(rec), 0); err == nil {
			t.Errorf("%s: ParseRecord accepted %s", name, rec)
		}
		if events, err := Read(strings.NewReader(rec + "\n")); err == nil {
			t.Errorf("%s: Read accepted %s as %+v", name, rec, events)
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte(rec+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := Follow(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e, _, err := fl.Next(); err == nil {
			t.Errorf("%s: Follow accepted %s as %+v", name, rec, e)
		}
		fl.Close()
	}
}

func TestReadRejectsNonMonotonicSeq(t *testing.T) {
	log := `{"seq":1,"type":"admit"}
{"seq":1,"type":"admit"}`
	if _, err := Read(strings.NewReader(log)); err == nil {
		t.Fatal("accepted a repeated sequence number")
	}
}

func TestWriterAtContinuesSequence(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterAt(&buf, 41)
	e, err := w.Append(Event{Type: Admit})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 42 {
		t.Fatalf("seq %d, want 42", e.Seq)
	}
}

// testLog writes a small log and returns its bytes plus the cumulative
// record boundaries (byte offset after each record, newline included).
func testLog(t testing.TB) ([]byte, []int64) {
	t.Helper()
	events := []Event{
		{Type: Join, Mach: 1, Mult: 2},
		{Type: Submit, Job: 1, Base: 3.5, T: 0.125},
		{Type: Submit, Job: 2, Base: 1},
		{Type: Admit, Moves: []Move{{Job: 2, Mach: 1}}},
		{Type: Complete, Job: 1},
		{Type: Admit, Moves: []Move{}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var bounds []int64
	for _, e := range events {
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, int64(buf.Len()))
	}
	return buf.Bytes(), bounds
}

// TestTornTailEveryCut exercises the torn-write rule at every byte
// offset of a log: a cut at (or one byte short of, losing only the
// newline) a record boundary reads clean; any other cut returns a
// TornTailError whose prefix and truncation offset are exactly the
// records before the tear. This is the exhaustive form of the
// "truncated-tail" restore table.
func TestTornTailEveryCut(t *testing.T) {
	logBytes, bounds := testLog(t)
	atBoundary := func(c int64) (bool, int) {
		n := 0
		for _, b := range bounds {
			if c == b || c == b-1 {
				return true, n + 1
			}
			if b < c {
				n++
			}
		}
		return c == 0, n
	}
	for cut := int64(0); cut <= int64(len(logBytes)); cut++ {
		events, err := Read(bytes.NewReader(logBytes[:cut]))
		clean, nFull := atBoundary(cut)
		if cut == int64(len(logBytes)) {
			clean, nFull = true, len(bounds)
		}
		if clean {
			if err != nil {
				t.Fatalf("cut %d at boundary: unexpected error %v", cut, err)
			}
			if len(events) != nFull {
				t.Fatalf("cut %d at boundary: %d events, want %d", cut, len(events), nFull)
			}
			continue
		}
		var tte *TornTailError
		if !errors.As(err, &tte) {
			t.Fatalf("cut %d mid-record: got %d events, err %v; want TornTailError", cut, len(events), err)
		}
		if len(tte.Events) != nFull {
			t.Fatalf("cut %d: torn prefix %d events, want %d", cut, len(tte.Events), nFull)
		}
		wantOff := int64(0)
		if nFull > 0 {
			wantOff = bounds[nFull-1]
		}
		if tte.Offset != wantOff {
			t.Fatalf("cut %d: torn offset %d, want %d", cut, tte.Offset, wantOff)
		}
	}
}

// TestFlippedByteMidLogIsHardError pins the other half of the rule:
// corruption with valid records after it can never be a torn write, so
// Read must refuse the whole log rather than resynchronise past it.
func TestFlippedByteMidLogIsHardError(t *testing.T) {
	logBytes, bounds := testLog(t)
	// Flip one byte in the middle of the second record.
	pos := (bounds[0] + bounds[1]) / 2
	for _, flip := range []byte{0xff, '0', '"'} {
		mut := append([]byte(nil), logBytes...)
		if mut[pos] == flip {
			continue
		}
		mut[pos] = flip
		_, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip %q at %d: corrupt interior record accepted", flip, pos)
		}
		var tte *TornTailError
		if errors.As(err, &tte) {
			t.Fatalf("flip %q at %d: mid-log corruption classified as torn tail", flip, pos)
		}
	}
}

// TestFlippedByteInFinalRecordIsTorn: the same corruption on the last
// record is indistinguishable from a torn write and is truncated. The
// CRC is what catches flips that leave the JSON well-formed.
func TestFlippedByteInFinalRecordIsTorn(t *testing.T) {
	logBytes, bounds := testLog(t)
	last := bounds[len(bounds)-1]
	prev := bounds[len(bounds)-2]
	// Target a digit inside the final record's payload so the line stays
	// plausible JSON and only the checksum can object.
	pos := prev + (last-prev)/2
	mut := append([]byte(nil), logBytes...)
	if mut[pos] == '9' {
		mut[pos] = '8'
	} else if mut[pos] >= '0' && mut[pos] <= '9' {
		mut[pos]++
	} else {
		mut[pos] = 'x'
	}
	_, err := Read(bytes.NewReader(mut))
	var tte *TornTailError
	if !errors.As(err, &tte) {
		t.Fatalf("corrupt final record: got %v, want TornTailError", err)
	}
	if len(tte.Events) != len(bounds)-1 || tte.Offset != prev {
		t.Fatalf("torn classification off: %d events at offset %d, want %d at %d",
			len(tte.Events), tte.Offset, len(bounds)-1, prev)
	}
}

// TestDuplicateSeqFinalRecordIsHardError: a structurally sound,
// checksum-clean record with a non-advancing sequence number is producer
// corruption even at the tail — truncating it would silently drop an
// acknowledged event.
func TestDuplicateSeqFinalRecordIsHardError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append(Event{Type: Admit}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := append([]byte(nil), buf.Bytes()...)
	dup := append(append([]byte(nil), rec...), rec...) // seq 1 twice
	_, err := Read(bytes.NewReader(dup))
	if err == nil {
		t.Fatal("duplicate final sequence number accepted")
	}
	var tte *TornTailError
	if errors.As(err, &tte) {
		t.Fatal("duplicate final sequence number classified as torn tail")
	}
}

// TestOldLogWithoutCRC: records written before the crc field existed
// (plain encoding/json, no crc) stay readable — verification is simply
// skipped.
func TestOldLogWithoutCRC(t *testing.T) {
	events := []Event{
		{Seq: 1, Type: Join, Mach: 1, Mult: 1.5},
		{Seq: 2, Type: Submit, Job: 1, Base: 2},
		{Seq: 3, Type: Admit},
	}
	var buf bytes.Buffer
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i].Crc != 0 {
			t.Fatalf("crc-less record %d came back with crc %d", i, got[i].Crc)
		}
	}
}

// TestRecoverTruncatesTornTail: the file-level recovery helper truncates
// a torn final record in place, after which appends resume cleanly and
// the whole log reads back without error.
// TestRecoverRepairsMissingNewline pins the newline-tear case: a crash
// that cuts exactly the final record's terminator leaves a clean-parsing
// but unterminated log. Recover must keep the record (it persisted in
// full), append the terminator, and leave the file safe to append to.
func TestRecoverRepairsMissingNewline(t *testing.T) {
	logBytes, _ := testLog(t)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, logBytes[:len(logBytes)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	events, torn, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("newline-only tear classified as torn; the record was intact")
	}
	want, err := Read(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want) {
		t.Fatalf("recovered %d events, want %d", len(events), len(want))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, logBytes) {
		t.Fatalf("repaired file is not the original log (%d vs %d bytes)", len(got), len(logBytes))
	}
	// Appends resume on a fresh line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterAt(f, events[len(events)-1].Seq)
	if _, err := w.Append(Event{Type: Admit}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if more, torn, err := Recover(path); err != nil || torn || len(more) != len(want)+1 {
		t.Fatalf("append after repair: %d events torn=%v err=%v", len(more), torn, err)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	logBytes, bounds := testLog(t)
	path := filepath.Join(t.TempDir(), "wal.log")
	cut := bounds[2] + 7 // mid fourth record
	if err := os.WriteFile(path, logBytes[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	events, torn, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(events) != 3 {
		t.Fatalf("recover: torn=%v events=%d, want torn 3-event prefix", torn, len(events))
	}
	if fi, _ := os.Stat(path); fi.Size() != bounds[2] {
		t.Fatalf("file not truncated: %d bytes, want %d", fi.Size(), bounds[2])
	}
	// Appends resume after the truncation point.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterAt(f, events[len(events)-1].Seq)
	if _, err := w.Append(Event{Type: Admit}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	events, torn, err = Recover(path)
	if err != nil || torn {
		t.Fatalf("second recover: torn=%v err=%v", torn, err)
	}
	if len(events) != 4 || events[3].Seq != 4 {
		t.Fatalf("resumed log holds %d events, want 4 ending at seq 4", len(events))
	}
	// A missing file is an empty log, not an error.
	events, torn, err = Recover(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || torn || len(events) != 0 {
		t.Fatalf("recover of missing file: %v %v %v", events, torn, err)
	}
}

// TestParseEvents pins the batch decoder: it accepts one canonical
// record or a comma-joined list of them in brackets, crc or not, valid
// events or not, and refuses every body that strays from that form,
// however close — those go to encoding/json.
func TestParseEvents(t *testing.T) {
	accept := []struct {
		body string
		want []Event
	}{
		{`[]`, nil},
		{`{"type":"admit"}`, []Event{{Type: Admit}}},
		{`[{"type":"join","mult":1},{"type":"complete","job":7}]`, []Event{{Type: Join, Mult: 1}, {Type: Complete, Job: 7}}},
		{`[{"type":"admit","moves":[]},{"type":"admit","moves":[[9,2],[4,1]]}]`, []Event{{Type: Admit, Moves: []Move{}}, {Type: Admit, Moves: []Move{{Job: 9, Mach: 2}, {Job: 4, Mach: 1}}}}},
		{`{"seq":3,"t":0.5,"type":"submit","job":2,"base":1e+06,"crc":12}`, []Event{{Seq: 3, T: 0.5, Type: Submit, Job: 2, Base: 1e6, Crc: 12}}},
		// A structurally invalid event decodes: its consumer rejects it.
		{`[{"type":"submit","base":0.5}]`, []Event{{Type: Submit, Base: 0.5}}},
	}
	for _, c := range accept {
		got, ok := ParseEvents([]byte(c.body), make([]Event, 3))
		if !ok || len(got) != len(c.want) {
			t.Errorf("ParseEvents(%s) = %+v, %v; want %+v", c.body, got, ok, c.want)
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], c.want[i]) {
				t.Errorf("ParseEvents(%s)[%d] = %+v, want %+v", c.body, i, got[i], c.want[i])
			}
		}
	}
	for _, body := range []string{
		``, `[`, `]`, `[,]`, `null`, `{}`, ` []`, `[] `, "[]\n",
		`[{"type":"admit"},]`,
		`[{"type":"admit"} ]`,
		`[{"type":"admit"}{"type":"admit"}]`,
		`{"type":"admit"}{"type":"admit"}`,
		`{"type": "admit"}`,
		`{"type":"admit","seq":1}`,
		`{"type":"join","mult":0}`,
		`{"type":"join","mult":1.0}`,
		`{"type":"join","mult":1000000}`,
		`{"type":"complete","job":07}`,
		`{"type":"admit","crc":01}`,
		`{"type":"admit","crc":4294967296}`,
		`{"type":"bogus"}`,
		`{"type":"admit","extra":1}`,
		`{"type":"admit","moves":null}`,
		`{"type":"admit","moves":[ ]}`,
		`{"type":"admit","moves":[[1,2],]}`,
		`{"type":"admit","moves":[[1,02]]}`,
		`{"type":"admit","moves":[[1]]}`,
		`{"type":"admit","moves":[[1,2]}`,
	} {
		if got, ok := ParseEvents([]byte(body), nil); ok {
			t.Errorf("ParseEvents(%q) accepted %+v", body, got)
		}
	}
}

// TestParseNumber pins the number rule: the strconv 'g' form AppendJSON
// writes, finite, and nothing else.
func TestParseNumber(t *testing.T) {
	for _, s := range []string{"1", "-2.5", "0", "123456.789", "1e+06", "1.5e-05", "5e-324", "1.7976931348623157e+308"} {
		v, ok := ParseNumber([]byte(s))
		if !ok || string(strconv.AppendFloat(nil, v, 'g', -1, 64)) != s {
			t.Errorf("ParseNumber(%q) = %v, %v", s, v, ok)
		}
	}
	for _, s := range []string{"", "1.0", "01", "+1", "1000000", "1e6", "0.00001", "1E+06", "NaN", "+Inf", "-Inf", "Inf", "0x1p-2", "1e400", " 1", "1,"} {
		if v, ok := ParseNumber([]byte(s)); ok {
			t.Errorf("ParseNumber(%q) accepted %v", s, v)
		}
	}
}
