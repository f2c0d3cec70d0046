package eventlog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// followLog writes n submit events to a fresh log file and returns its
// path plus the stamped events.
func followLog(t *testing.T, n int) (string, []Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "follow.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		e, err := w.Append(Event{Type: Submit, Job: uint64(i + 1), Base: float64(1 + i%7)})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, events
}

func TestFollowFromStart(t *testing.T) {
	path, events := followLog(t, 25)
	fl, err := Follow(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for i, want := range events {
		got, ok, err := fl.Next()
		if err != nil || !ok {
			t.Fatalf("event %d: ok=%v err=%v", i, ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok, err := fl.Next(); ok || err != nil {
		t.Fatalf("past the end: ok=%v err=%v, want caught-up", ok, err)
	}
}

func TestFollowResumesFromSeq(t *testing.T) {
	path, events := followLog(t, 40)
	for _, after := range []uint64{0, 1, 17, 39, 40, 99} {
		fl, err := Follow(path, after)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			e, ok, err := fl.Next()
			if err != nil {
				t.Fatalf("after=%d: %v", after, err)
			}
			if !ok {
				break
			}
			got = append(got, e)
		}
		fl.Close()
		want := 0
		if after < uint64(len(events)) {
			want = len(events) - int(after)
		}
		if len(got) != want {
			t.Fatalf("after=%d: followed %d events, want %d", after, len(got), want)
		}
		if want > 0 && got[0].Seq != after+1 {
			t.Fatalf("after=%d: first seq %d, want %d", after, got[0].Seq, after+1)
		}
	}
}

// TestFollowWaitsOnUnterminatedTail: a partial final record is a write
// in flight — Next reports "nothing yet" without consuming it, and
// returns the record once its terminator lands.
func TestFollowWaitsOnUnterminatedTail(t *testing.T) {
	path, events := followLog(t, 3)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the final newline plus a few bytes: record 3 is now torn.
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	fl, err := Follow(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for i := 0; i < 2; i++ {
		if _, ok, err := fl.Next(); !ok || err != nil {
			t.Fatalf("clean event %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := fl.Next(); ok || err != nil {
			t.Fatalf("torn tail poll %d: ok=%v err=%v, want wait", i, ok, err)
		}
	}

	// The writer finishes the record: the follower picks it up.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[len(full)-5:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, ok, err := fl.Next()
	if err != nil || !ok {
		t.Fatalf("completed tail: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, events[2]) {
		t.Fatalf("completed tail = %+v, want %+v", got, events[2])
	}
}

// TestFollowHardErrorOnTerminatedCorruption: a corrupt record WITH its
// newline was completed by the writer — that is real corruption, not a
// torn write, and must be a hard error (wait-vs-error boundary).
func TestFollowHardErrorOnTerminatedCorruption(t *testing.T) {
	path, _ := followLog(t, 3)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the final record, newline intact.
	full[len(full)-10] ^= 0x01
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	fl, err := Follow(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for i := 0; i < 2; i++ {
		if _, ok, err := fl.Next(); !ok || err != nil {
			t.Fatalf("clean event %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := fl.Next(); err == nil {
		t.Fatalf("terminated corruption: ok=%v err=nil, want hard error", ok)
	}
}

// TestFollowSkippedPrefixIsVerified: resuming past corrupt bytes must
// not skip verification of the prefix it rides over.
func TestFollowSkippedPrefixIsVerified(t *testing.T) {
	path, _ := followLog(t, 5)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[10] ^= 0x01 // corrupt record 1
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	fl, err := Follow(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if _, _, err := fl.Next(); err == nil {
		t.Fatal("follower skipped over mid-log corruption without error")
	}
}

// TestFollowConcurrentAppend races a live Writer against a Follower —
// the replication shape: the daemon appends + flushes while the
// replication server tails the same file. Run under -race.
func TestFollowConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const total = 2000
	w := NewWriter(f)

	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, err := w.Append(Event{Type: Submit, Job: uint64(i + 1), Base: 2}); err != nil {
				done <- err
				return
			}
			// Flush per record so the follower sees committed bytes; an
			// occasional yield widens the interleaving space.
			if err := w.Flush(); err != nil {
				done <- err
				return
			}
			if i%64 == 0 {
				time.Sleep(time.Microsecond)
			}
		}
		done <- nil
	}()

	fl, err := Follow(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	var got uint64
	deadline := time.Now().Add(30 * time.Second)
	for got < total {
		e, ok, err := fl.Next()
		if err != nil {
			t.Fatalf("after %d events: %v", got, err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("timed out at %d/%d events", got, total)
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if e.Seq != got+1 {
			t.Fatalf("sequence jumped to %d after %d", e.Seq, got)
		}
		got = e.Seq
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
