package eventlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzEventlogRead feeds arbitrary bytes to Read and, through a file, to
// Recover. Read must never panic; whatever it accepts — the whole log, or
// the clean prefix of a *TornTailError — must be valid events in strictly
// increasing Seq order. Recover must be idempotent: once a first Recover
// succeeds, a second returns the same events, reports no torn tail and
// leaves the file bytes as the first left them; a first Recover that
// fails must leave the file untouched. The corpus is seeded with the
// logs of TestTornTailEveryCut (every cut of the test log) and of the
// TestFlippedByte tests.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		var tte *TornTailError
		if errors.As(err, &tte) {
			events, err = tte.Events, nil
		}
		if err == nil {
			var seq uint64
			for i, e := range events {
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
		if !slices.Equal(first, second) {
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
