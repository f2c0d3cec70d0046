package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// FuzzEventlogRead feeds arbitrary bytes to Read and, through a file, to
// Recover. Read must never panic; whatever it accepts — the whole log, or
// the clean prefix of a *TornTailError — must be valid events in strictly
// increasing Seq order, each what encoding/json decodes its line to and
// each re-encoded by the Writer as exactly that line (checkCanonical).
// Recover must be idempotent: once a first Recover succeeds, a second
// returns the same events, reports no torn tail and leaves the file
// bytes as the first left them; a first Recover that fails must leave
// the file untouched. The corpus is seeded with the logs of
// TestTornTailEveryCut (every cut of the test log) and of the
// TestFlippedByte tests, plus a crc-less log, a non-canonical record and
// crc-less admits carrying search outcomes; the test log's admits carry
// them too.
func FuzzEventlogRead(f *testing.F) {
	logBytes, bounds := testLog(f)
	for cut := range len(logBytes) + 1 {
		f.Add(logBytes[:cut])
	}
	flipped := func(pos int64, to byte) []byte {
		mut := bytes.Clone(logBytes)
		mut[pos] = to
		return mut
	}
	for _, to := range []byte{0xff, '0', '"'} {
		f.Add(flipped((bounds[0]+bounds[1])/2, to))
	}
	prev, last := bounds[len(bounds)-2], bounds[len(bounds)-1]
	f.Add(flipped(prev+(last-prev)/2, 'x'))
	f.Add(flipped(prev+(last-prev)/2, '8'))

	f.Add([]byte(`{"seq":1,"type":"join","mach":1,"mult":1.5}` + "\n" + `{"seq":2,"type":"submit","job":1,"base":2}`))
	f.Add([]byte(`{"seq":1, "type":"admit"}`))
	f.Add([]byte(`{"seq":1,"type":"admit","moves":[[1,2],[30,1]]}` + "\n" + `{"seq":2,"type":"admit","moves":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		var tte *TornTailError
		if errors.As(err, &tte) {
			events, err = tte.Events, nil
		}
		if err == nil {
			lines := records(data)
			var seq uint64
			for i, e := range events {
				checkCanonical(t, e, lines[i])
				if verr := e.Validate(); verr != nil {
					t.Fatalf("event %d accepted but invalid: %v", i, verr)
				}
				if e.Seq <= seq {
					t.Fatalf("event %d: seq %d not after %d", i, e.Seq, seq)
				}
				seq = e.Seq
			}
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, _, err := Recover(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("failed Recover (%v) changed the file", err)
			}
			return
		}
		second, torn, err := Recover(path)
		if err != nil || torn {
			t.Fatalf("second Recover: torn %v, err %v", torn, err)
		}
		if !equalEvents(first, second) {
			t.Fatalf("second Recover returned %d events, first %d", len(second), len(first))
		}
		again, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(again, after) {
			t.Fatalf("second Recover changed the file: %q -> %q", after, again)
		}
	})
}

// FuzzEventlogFollow writes arbitrary bytes to a file and follows it
// from seq 0 and from a mid-log seq. Next must never panic, and up to
// the first record either reader rejects it must return exactly the
// events Read accepts from the newline-terminated records, past the
// resume point. The line Line exposes must decode back to the event
// Next returned.
func FuzzEventlogFollow(f *testing.F) {
	logBytes, bounds := testLog(f)
	for cut := range len(logBytes) + 1 {
		f.Add(logBytes[:cut])
	}
	mid := bytes.Clone(logBytes)
	mid[(bounds[0]+bounds[1])/2] = 'x'
	f.Add(mid)
	f.Add([]byte("\n\r\n" + `{"seq":1,"type":"admit"}` + "\r\n\n" + `{"seq":1,"type":"admit"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Read's events up to its first rejected newline-terminated
		// record: the longest line-aligned prefix it accepts whole.
		var want []Event
		for i, b := range data {
			if b != '\n' {
				continue
			}
			events, err := Read(bytes.NewReader(data[:i+1]))
			if err != nil {
				break
			}
			want = events
		}
		afters := []uint64{0}
		if len(want) > 0 {
			afters = append(afters, want[len(want)/2].Seq)
		}
		for _, after := range afters {
			fl, err := Follow(path, after)
			if err != nil {
				t.Fatal(err)
			}
			var got []Event
			for range len(data) + 1 {
				e, ok, err := fl.Next()
				if err != nil || !ok {
					break
				}
				back, err := ParseRecord(fl.Line(), 0)
				if err != nil || !reflect.DeepEqual(back, e) {
					t.Fatalf("after %d: Line %q decodes to %+v (%v), Next returned %+v", after, fl.Line(), back, err, e)
				}
				got = append(got, e)
			}
			fl.Close()
			var wantAfter []Event
			for _, e := range want {
				if e.Seq > after {
					wantAfter = append(wantAfter, e)
				}
			}
			if !equalEvents(got, wantAfter) {
				t.Fatalf("after %d: Follow returned %+v, Read %+v", after, got, wantAfter)
			}
		}
	})
}

// equalEvents reports whether a and b hold equal events, a nil search
// outcome unequal to an empty one.
func equalEvents(a, b []Event) bool {
	return slices.EqualFunc(a, b, func(x, y Event) bool { return reflect.DeepEqual(x, y) })
}

// records splits a log into records the way Read does: one per line,
// line terminators trimmed, blank lines skipped.
func records(data []byte) [][]byte {
	var out [][]byte
	for _, raw := range bytes.SplitAfter(data, []byte{'\n'}) {
		if rec := bytes.TrimRight(raw, "\r\n"); len(rec) > 0 {
			out = append(out, rec)
		}
	}
	return out
}

// checkCanonical is the decoder's differential oracle: e, decoded from
// line, must be what encoding/json decodes line to, and the Writer must
// encode e as line byte for byte — with the crc it stamps when line
// carries one, as the crc-less canonical body when it does not.
func checkCanonical(t *testing.T, e Event, line []byte) {
	t.Helper()
	var ref Event
	if err := json.Unmarshal(line, &ref); err != nil {
		t.Fatalf("accepted %q, encoding/json rejects it: %v", line, err)
	}
	if !reflect.DeepEqual(ref, e) {
		t.Fatalf("%q decoded to %+v, encoding/json %+v", line, e, ref)
	}
	enc := e.AppendJSON(nil)
	if bytes.Contains(line, []byte(`"crc":`)) {
		var buf bytes.Buffer
		w := NewWriterAt(&buf, e.Seq-1)
		if _, err := w.Append(e); err != nil {
			t.Fatalf("re-appending %+v: %v", e, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		enc = bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
	}
	if !bytes.Equal(enc, line) {
		t.Fatalf("accepted %q, the Writer encodes it %q", line, enc)
	}
}
