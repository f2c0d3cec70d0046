package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridcma"
	"gridcma/internal/etc"
	"gridcma/internal/eventlog"
	"gridcma/internal/schedule"
)

// TestRunRejectsBadFlags: a bad command line is refused with exit code 2
// and the named message on stderr, before any work: nothing on stdout,
// no panic, and no output file. Each case names its output files inside
// a directory that must still be empty afterwards.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	for _, table := range []struct {
		name  string
		cases []struct {
			args []string
			want string
		}
	}{
		{"solve", []struct {
			args []string
			want string
		}{
			{[]string{"-runs", "-1"}, "-runs -1"},
			{[]string{"-runs", "0"}, "-runs 0"},
			{[]string{"-iters", "-1"}, "negative budget"},
			{[]string{"-time", "-5s"}, "negative budget"},
			{[]string{"-lambda", "7"}, "-lambda 7 outside [0,1]"},
			{[]string{"-workers", "-3"}, "negative -workers -3"},
			{[]string{"-config", "x.json", "-alg", "minmin"}, "-config applies only to -alg cma"},
			{[]string{"-config", "x.json", "-race", "sa,tabu"}, "-config applies only to -alg cma"},
			{[]string{"-alg", "annealing"}, "unknown algorithm"},
			{[]string{"-race", "sa,annealing"}, "unknown algorithm"},
			{[]string{"-instance", "u_x_hihi.0"}, "unknown consistency"},
			{[]string{"-instance", "u_c_hihi.0", "-gen", "8x2"}, "only one of -instance, -file and -gen"},
			{[]string{"-gen", "8x0"}, "dimensions 8×0"},
			{[]string{"-gen", "64x8:c_hihi:s1:f32", "-alg", "minmin", "-export", out}, `unknown class code "f32"`},
			{[]string{"-alg", "minmin", "-export", out, "extra"}, "unexpected argument \"extra\""},
			{[]string{"bogus", "-alg", "minmin"}, "unknown subcommand \"bogus\""},
		}},
		{"gen", []struct {
			args []string
			want string
		}{
			{[]string{"gen", "-class", "u_c_hihi", "-jobs", "-5", "-machs", "3", "-o", out}, "dimensions -5×3"},
			{[]string{"gen", "-class", "u_c_hihi", "-machs", "-1", "-o", out}, "dimensions 512×-1"},
			{[]string{"gen", "-class", "u_x_hihi", "-o", out}, "unknown consistency"},
			{[]string{"gen", "-class", "u_c_hihi", "-o", out, "extra"}, "unexpected argument \"extra\""},
			{[]string{"gen", "-all", "-dir", dir, "-class", "u_c_hihi"}, "need exactly one of"},
			{[]string{"gen", "-name", "u_c_hihi.0"}, "not defined: -name"},
			{[]string{"gen", "-gen", "8x0", "-o", out}, "dimensions 8×0"},
			{[]string{"gen", "-gen", "64x8:c_hihi:s1:f32", "-o", out}, `unknown class code "f32"`},
		}},
		{"sim", []struct {
			args []string
			want string
		}{
			{[]string{"sim", "-cma-iters", "0", "-trace-out", out}, "-cma-iters 0"},
			{[]string{"sim", "-cma-iters", "-2", "-trace-out", out}, "-cma-iters -2"},
			{[]string{"sim", "-horizon", "0", "-trace-out", out}, "non-positive horizon"},
			{[]string{"sim", "-rate", "-1", "-trace-out", out}, "non-positive arrival rate"},
			{[]string{"sim", "-policy", "bogus", "-trace-out", out}, "unknown policy \"bogus\""},
			{[]string{"sim", "-compare", "-horizon", "10", "-trace-out", out}, "-trace-out applies to one policy"},
			{[]string{"sim", "-horizon", "10", "-trace-out", out, "extra"}, "unexpected argument \"extra\""},
		}},
		{"experiments", []struct {
			args []string
			want string
		}{
			{[]string{"experiments", "-run", "frontier", "-specs", "bogus"}, "gen spec \"bogus\""},
			{[]string{"experiments", "-run", "frontier", "-specs", "64x4,8x0"}, "dimensions 8×0"},
			{[]string{"experiments", "-run", "heuristics", "-runs", "0"}, "gridsched: experiments: Runs = 0"},
			{[]string{"experiments", "-run", "heuristics", "-iters", "0"}, "unbounded budget"},
			{[]string{"experiments", "-run", "heuristics", "-time", "-5s"}, "negative -time"},
			{[]string{"experiments", "-run", "heuristics", "-specs", "64x4"}, "-specs applies only to -run frontier"},
			{[]string{"experiments", "-run", "bogus"}, "unknown experiment \"bogus\""},
			{[]string{"experiments", "-run", "heuristics", "-csv", dir, "extra"}, "unexpected argument \"extra\""},
		}},
	} {
		t.Run(table.name, func(t *testing.T) {
			for _, tc := range table.cases {
				var stdout, stderr bytes.Buffer
				code := run(tc.args, &stdout, &stderr)
				if code != 2 || !strings.Contains(stderr.String(), tc.want) {
					t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr.String(), tc.want)
				}
				if stdout.Len() != 0 {
					t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
				}
				if files, _ := os.ReadDir(dir); len(files) != 0 {
					t.Fatalf("%v: wrote %s after a refused command line", tc.args, files[0].Name())
				}
			}
		})
	}

	// Good flags that fail at work are a runtime failure, not a usage
	// error.
	var stderr bytes.Buffer
	if code := run([]string{"-file", filepath.Join(dir, "missing.etc"), "-alg", "minmin"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "missing.etc") {
		t.Fatalf("missing file: exit %d, stderr %q; want 1 and the path", code, stderr.String())
	}
}

// runOK runs a command line that must succeed and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

func TestRunSmokeSolve(t *testing.T) {
	out := runOK(t, "-gen", "64x4:c_hihi:s1", "-alg", "cma", "-iters", "2")
	if !strings.Contains(out, "gen_c_hihi_64x4_s1") || !strings.Contains(out, "best makespan") {
		t.Fatalf("solve output:\n%s", out)
	}
}

// TestRunSmokeGenRoundTrip: an instance gen writes parses back, and the
// solve on the file reports one-shot Min-Min's makespan on the instance
// generated in memory from the same arguments.
func TestRunSmokeGenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.etc")
	if out := runOK(t, "gen", "-class", "u_c_hihi", "-jobs", "8", "-machs", "2", "-o", path); out != "wrote "+path+"\n" {
		t.Fatalf("gen output %q", out)
	}
	c, _, err := gridcma.ParseInstanceClass("u_c_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	want, err := gridcma.GenerateInstance(c, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := etc.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "u_c_hihi.0" || got.Jobs != 8 || got.Machs != 2 {
		t.Fatalf("read back %s %dx%d, want u_c_hihi.0 8x2", got.Name, got.Jobs, got.Machs)
	}
	for j := 0; j < 8; j++ {
		for m := 0; m < 2; m++ {
			if d := math.Abs(got.At(j, m) - want.At(j, m)); d > 1e-6 {
				t.Fatalf("ETC[%d][%d] = %v, want %v", j, m, got.At(j, m), want.At(j, m))
			}
		}
	}
	minmin, err := gridcma.Heuristic("minmin")
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("makespan  %.3f\n", schedule.NewState(want, minmin(want)).Makespan())
	if out := runOK(t, "-file", path, "-alg", "minmin"); !strings.Contains(out, line) {
		t.Fatalf("solve on the file:\n%s\nwant the line %q", out, line)
	}
}

func TestRunSmokeSim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.log")
	out := runOK(t, "sim", "-horizon", "100", "-policy", "minmin", "-trace-out", path)
	if !strings.Contains(out, "event trace       "+path) || !strings.Contains(out, "policy            minmin") {
		t.Fatalf("sim output:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := eventlog.Read(f)
	if err != nil || len(events) == 0 {
		t.Fatalf("trace: %d events, err %v", len(events), err)
	}
}

func TestRunSmokeExperiments(t *testing.T) {
	out := runOK(t, "experiments", "-run", "takeover")
	if !strings.Contains(out, "== takeover") || !strings.Contains(out, "total wall time") {
		t.Fatalf("experiments output:\n%s", out)
	}
	// table2 runs the registry algorithms through the public batch
	// executor: one row per benchmark instance.
	out = runOK(t, "experiments", "-run", "table2", "-iters", "1", "-runs", "1")
	if !strings.Contains(out, "== table2") || strings.Count(out, "u_") != 12 || !strings.Contains(out, "u_s_lolo.0") {
		t.Fatalf("experiments output:\n%s", out)
	}
}
