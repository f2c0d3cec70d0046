package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a bad command line is refused with exit code 2
// before any listener or file opens. Each case names an address this
// test holds busy, so a run that got as far as listening would fail
// there instead, with exit code 1 and "address already in use"; and each
// names a log path that must still not exist afterwards.
func TestRunRejectsBadFlags(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	addr := busy.Addr().String()
	logPath := filepath.Join(t.TempDir(), "gridd.log")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-log", logPath, "-fsync", "bogus"}, "unknown fsync policy"},
		{[]string{"-log", logPath, "-mach-cap", "99999"}, "MachCap 99999"},
		{[]string{"-log", logPath, "-mach-cap", "0"}, "MachCap 0"},
		{[]string{"-log", logPath, "-job-cap", "0"}, "JobCap 0"},
		{[]string{"-log", logPath, "-ls-iters", "-1"}, "negative LSIters"},
		{[]string{"-log", logPath, "-replicate-listen", addr, "-replica-of", addr}, "mutually exclusive"},
		{[]string{"-replicate-listen", addr}, "requires -log"},
		{[]string{"-log", logPath, "-window", "soon"}, "invalid value"},
		{[]string{"-log", logPath, "-threads", "4"}, "not defined"},
		{[]string{"-log", logPath, "extra"}, "unexpected argument"},
		{[]string{"-log", logPath, "-fsync"}, "needs an argument"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-addr", addr}, tc.args...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "in use") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr.String(), tc.want)
		}
		if strings.Contains(stderr.String(), "listening") {
			t.Errorf("%v: announced a listener before refusing: %q", tc.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
		}
		if _, err := os.Stat(logPath); !os.IsNotExist(err) {
			t.Fatalf("%v: the log exists after a refused command line (%v)", tc.args, err)
		}
	}

	// Good flags get as far as the listener, which is busy: a runtime
	// failure, not a usage error, and still no log file.
	var stderr bytes.Buffer
	if code := run([]string{"-addr", addr, "-log", logPath, "-fsync", "always"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "in use") {
		t.Fatalf("busy listener: exit %d, stderr %q; want 1 and \"in use\"", code, stderr.String())
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("busy listener: the log exists (%v)", err)
	}
}
