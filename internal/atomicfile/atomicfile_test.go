package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesOrLeavesTheOldFile checks both outcomes of a replace:
// a write that succeeds leaves exactly its bytes, and one that fails
// leaves the old file as it was. Neither leaves a temp file behind.
func TestWriteReplacesOrLeavesTheOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%d entries in the directory, want only the file", len(entries))
		}
	}
	if err := Write(path, put("old")); err != nil {
		t.Fatal(err)
	}
	check("old")
	if err := Write(path, put("new")); err != nil {
		t.Fatal(err)
	}
	check("new")
	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want %v", err, boom)
	}
	check("new")
}
