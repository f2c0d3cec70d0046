package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a bad command line is refused with exit code 2
// before any listener opens. Each case names an address this test holds
// busy, so a run that got as far as listening would fail there instead,
// with exit code 1 and "address already in use".
func TestRunRejectsBadFlags(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	addr := busy.Addr().String()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-drain", "soon"}, "invalid value"},
		{[]string{"-drain=-1s"}, "negative"},
		{[]string{"-q=maybe"}, "invalid boolean"},
		{[]string{"-threads", "4"}, "not defined"},
		{[]string{"extra"}, "unexpected argument"},
		{[]string{"-drain"}, "needs an argument"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-q", "-listen", addr}, tc.args...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "in use") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
		}
	}

	// Good flags get as far as the listener, which is busy: a runtime
	// failure, not a usage error.
	var stderr bytes.Buffer
	if code := run([]string{"-q", "-listen", addr, "-drain", "1s"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "in use") {
		t.Fatalf("busy listener: exit %d, stderr %q; want 1 and \"in use\"", code, stderr.String())
	}
}
