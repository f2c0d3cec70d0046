package eventlog

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkAppendEventCRC guards the CRC encode path: a steady-state
// Append — canonical encoding, checksum and buffered write — must not
// allocate. CI runs this with -benchtime 1x and fails on allocs/op > 0,
// like the probe/sweep/scan guards.
func BenchmarkAppendEventCRC(b *testing.B) {
	w := NewWriter(io.Discard)
	e := Event{Type: Submit, Job: 1, Base: 3.511971, T: 1.25}
	// Warm the scratch and bufio buffers so the measured loop is the
	// steady state a long-running daemon sits in.
	if _, err := w.Append(e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseRecord guards the record decoder every WAL read runs
// through (Read, Recover, Follow, the replication follower): a
// steady-state decode of a crc-stamped canonical record must not
// allocate. CI runs it beside BenchmarkAppendEventCRC under the same
// allocation guard.
func BenchmarkParseRecord(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriterAt(&buf, 41)
	if _, err := w.Append(Event{Type: Submit, Job: 1234, Base: 3.511971, T: 1.25}); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	line := bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := parseRecord(line, 41); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseEvents guards the one-pass decoder of /event bodies: a
// batch of 128 completes decoded into a reused slice must not allocate.
// CI runs it under the same allocation guard as BenchmarkParseRecord.
func BenchmarkParseEvents(b *testing.B) {
	events := make([]Event, 128)
	body := []byte{'['}
	for i := range events {
		if i > 0 {
			body = append(body, ',')
		}
		body = Event{Type: Complete, Job: uint64(1000 + i)}.AppendJSON(body)
	}
	body = append(body, ']')
	events, ok := ParseEvents(body, events)
	if !ok || len(events) != 128 {
		b.Fatalf("ParseEvents decoded %d events, ok %v", len(events), ok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events, _ = ParseEvents(body, events)
	}
}
