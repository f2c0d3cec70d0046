package chaos

import (
	"bytes"
	"errors"
	"testing"
)

// memFile is an in-memory Backend recording writes and syncs.
type memFile struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Sync() error                 { m.syncs++; return nil }
func (m *memFile) Close() error                { m.closed = true; return nil }

func TestCrashTearsAtExactOffset(t *testing.T) {
	m := &memFile{}
	f := Wrap(m, Fault{Kind: Crash, At: 10})
	if n, err := f.Write([]byte("0123456")); n != 7 || err != nil {
		t.Fatalf("pre-fault write: n=%d err=%v", n, err)
	}
	n, err := f.Write([]byte("789abcdef"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write: err=%v, want ErrCrashed", err)
	}
	if n != 3 || m.buf.String() != "0123456789" {
		t.Fatalf("torn write persisted %q (n=%d), want exactly 10 bytes", m.buf.String(), n)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatal("write after crash did not fail")
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal("sync after crash did not fail")
	}
	if err := f.Close(); err != nil || !m.closed {
		t.Fatal("close after crash must still release the backend")
	}
}

func TestShortWriteKeepsHandleUsable(t *testing.T) {
	m := &memFile{}
	f := Wrap(m, Fault{Kind: ShortWrite, At: 4})
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrShortWrite) || n != 4 {
		t.Fatalf("short write: n=%d err=%v, want 4/ErrShortWrite", n, err)
	}
	if n, err := f.Write([]byte("gh")); n != 2 || err != nil {
		t.Fatalf("write after short write: n=%d err=%v", n, err)
	}
	if m.buf.String() != "abcdgh" {
		t.Fatalf("persisted %q", m.buf.String())
	}
}

func TestENOSPCRejectsWholeWrite(t *testing.T) {
	m := &memFile{}
	f := Wrap(m, Fault{Kind: ENOSPC, At: 5})
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("defg"))
	if !errors.Is(err, ErrNoSpace) || n != 0 {
		t.Fatalf("enospc write: n=%d err=%v", n, err)
	}
	if m.buf.String() != "abc" {
		t.Fatalf("enospc persisted partial bytes: %q", m.buf.String())
	}
	// One-shot: the handle keeps working afterwards.
	if _, err := f.Write([]byte("de")); err != nil {
		t.Fatal(err)
	}
}

func TestSyncFailFiresOnceAtOffset(t *testing.T) {
	m := &memFile{}
	f := Wrap(m, Fault{Kind: SyncFail, At: 3})
	if err := f.Sync(); err != nil {
		t.Fatalf("sync before offset: %v", err)
	}
	if _, err := f.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("sync at offset: %v, want ErrSyncFailed", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after fault: %v", err)
	}
	if m.syncs != 2 {
		t.Fatalf("backend saw %d syncs, want 2", m.syncs)
	}
}

func TestPlanDeterministicAndInRange(t *testing.T) {
	a := Plan(7, 64, 1000)
	b := Plan(7, 64, 1000)
	kinds := map[Kind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i].At < 1 || a[i].At >= 1000 {
			t.Fatalf("fault %d offset %d outside [1, 1000)", i, a[i].At)
		}
		kinds[a[i].Kind]++
	}
	for k := Kind(0); k < numKinds; k++ {
		if kinds[k] == 0 {
			t.Fatalf("plan of 64 faults never drew kind %v", k)
		}
	}
	if c := Plan(8, 64, 1000); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("distinct seeds drew identical fault prefixes")
	}
}

// File faults planned at byte 0 and beyond EOF.

func TestFaultAtByteZero(t *testing.T) {
	// At=0 means nothing ever persists: the very first write crosses the
	// offset and tears with an empty prefix.
	m := &memFile{}
	f := Wrap(m, Fault{Kind: Crash, At: 0})
	n, err := f.Write([]byte("abc"))
	if !errors.Is(err, ErrCrashed) || n != 0 {
		t.Fatalf("write at fault@0: n=%d err=%v, want 0/ErrCrashed", n, err)
	}
	if m.buf.Len() != 0 {
		t.Fatalf("fault@0 persisted %q, want nothing", m.buf.String())
	}
	if !f.Tripped() {
		t.Fatal("fault@0 did not report tripped")
	}

	m2 := &memFile{}
	f2 := Wrap(m2, Fault{Kind: ShortWrite, At: 0})
	n, err = f2.Write([]byte("abc"))
	if !errors.Is(err, ErrShortWrite) || n != 0 {
		t.Fatalf("short write at fault@0: n=%d err=%v, want 0/ErrShortWrite", n, err)
	}
	if n, err := f2.Write([]byte("xy")); n != 2 || err != nil {
		t.Fatalf("handle unusable after short write@0: n=%d err=%v", n, err)
	}
	if m2.buf.String() != "xy" {
		t.Fatalf("persisted %q, want %q", m2.buf.String(), "xy")
	}
}

func TestFaultBeyondEOFNeverTrips(t *testing.T) {
	// A fault offset past everything the workload writes must never fire:
	// the wrapper is transparent and Tripped stays false, which is how a
	// torture harness distinguishes "survived the fault" from "never
	// reached it".
	m := &memFile{}
	f := Wrap(m, Fault{Kind: Crash, At: 1 << 30})
	for i := 0; i < 10; i++ {
		if n, err := f.Write([]byte("0123456789")); n != 10 || err != nil {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if f.Tripped() {
		t.Fatal("fault beyond EOF reported tripped")
	}
	if f.Offset() != 100 || m.buf.Len() != 100 {
		t.Fatalf("offset=%d len=%d, want 100/100", f.Offset(), m.buf.Len())
	}

	// Same for SyncFail: syncs below the offset pass through.
	m2 := &memFile{}
	f2 := Wrap(m2, Fault{Kind: SyncFail, At: 1 << 30})
	if _, err := f2.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f2.Sync(); err != nil || f2.Tripped() {
		t.Fatalf("sync below offset: err=%v tripped=%v", err, f2.Tripped())
	}
}
