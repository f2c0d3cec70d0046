package gridcma_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fusedLine is one module source line that compiles to a fused
// multiply–add on arm64, keyed by its file (from the module root) and its
// trimmed text, so an edit elsewhere in the file does not move it.
type fusedLine struct{ file, text string }

// fusedAllowlist names every module source line that still compiles to a
// fused multiply–add on arm64, each with the reason it may. A fused
// instruction rounds once where amd64 rounds twice, so its value can
// differ in the last bit between the two. The list only shrinks:
// TestFusedMultiplyAddAllowlist fails on a fused line that is not listed
// and on a listed line that no longer fuses.
var fusedAllowlist = []struct {
	fusedLine
	reason string
}{
	{fusedLine{"internal/schedule/fitness.go", "return o.Lambda*st.Makespan() + (1-o.Lambda)*st.MeanFlowtime()"},
		"Objective.Of, inlined into every probe and engine; open: explicit conversions must keep it within the inliner's budget"},
	{fusedLine{"internal/schedule/fitness.go", "return o.Lambda*makespan + (1-o.Lambda)*meanFlowtime"},
		"Objective.Combine, inlined into Best.Note and the probes; open, to change with Of so both keep rounding alike"},
	{fusedLine{"internal/etc/etc.go", "row[j] = b * (1 + (rMach-1)*u)"},
		"Braun's row scale; open: the Braun generator's digests are pinned on amd64 only"},
	{fusedLine{"internal/rng/rng.go", "return lo + (hi-lo)*r.Float64()"},
		"Uniform, which draws Braun's row base; open with the row scale"},
	{fusedLine{"internal/etc/cvb.go", "v := 1 + c*x"},
		"the CVB gamma draw, which also calls math.Log: its arm64 code is Go and fuses, so CVB instances are per-architecture anyway"},
	{fusedLine{"internal/etc/cvb.go", "if u < 1-0.0331*x*x*x*x {"},
		"the CVB gamma draw's squeeze test, per-architecture with math.Log"},
	{fusedLine{"internal/etc/cvb.go", "if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {"},
		"the CVB gamma draw's acceptance test, per-architecture with math.Log"},
	{fusedLine{"internal/etc/cvb.go", "u := 2*r.Float64() - 1"},
		"the CVB normal draw behind the gamma draw, per-architecture with it"},
	{fusedLine{"internal/etc/cvb.go", "v := 2*r.Float64() - 1"},
		"the CVB normal draw behind the gamma draw, per-architecture with it"},
	{fusedLine{"internal/etc/cvb.go", "s := u*u + v*v"},
		"the CVB normal draw behind the gamma draw, per-architecture with it"},
	{fusedLine{"internal/gridsim/gridsim.go", "m.busyTill = s.now + d"},
		"the simulator's clock: the ETC product inlined from Sim.etcOf fuses into the add; open"},
	{fusedLine{"internal/gridsim/gridsim.go", "m.busyTime += d"},
		"the simulator's busy-time sum, fused as the clock is; open"},
	{fusedLine{"internal/pareto/pareto.go", "hv += (prevMS - s.Makespan) * (ref.Flowtime - s.Flowtime)"},
		"Front.Hypervolume, a reported indicator that no digest, golden case or replica reads"},
	{fusedLine{"internal/stats/stats.go", "ss += d * d"},
		"Summarize's sum of squares, a reported deviation that no digest, golden case or replica reads"},
}

// fusedInstr matches one fused multiply–add of the arm64 listing and the
// module source line it maps to. -trimpath prints module files as
// gridcma/<path>; the standard library's own fused code (math.Log's)
// maps to its own files and is outside the gate.
var fusedInstr = regexp.MustCompile(`\(gridcma/([^():]+\.go):(\d+)\)\t(?:FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestFusedMultiplyAddAllowlist cross-compiles the module for arm64 with
// the compiler's assembly listing, with the go command that runs this
// test, and holds the fused multiply–adds it finds to fusedAllowlist.
// Nothing runs on arm64: the listing is read, not executed. -trimpath
// keeps the module's directory out of the listing and the build cache
// keys, so copies of the module share the cache.
func TestFusedMultiplyAddAllowlist(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for arm64")
	}
	cmd := exec.Command("go", "build", "-trimpath", "-gcflags=gridcma/...=-S", "./...")
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	found := map[fusedLine]string{} // → the first file:line seen
	instrs := 0
	sources := map[string][]string{}
	for _, m := range fusedInstr.FindAllSubmatch(out, -1) {
		file, n := string(m[1]), string(m[2])
		lines, ok := sources[file]
		if !ok {
			data, err := os.ReadFile(filepath.FromSlash(file))
			if err != nil {
				t.Fatal(err)
			}
			lines = strings.Split(string(data), "\n")
			sources[file] = lines
		}
		i, _ := strconv.Atoi(n)
		key := fusedLine{file, strings.TrimSpace(lines[i-1])}
		if _, ok := found[key]; !ok {
			found[key] = file + ":" + n
		}
		instrs++
	}
	t.Logf("arm64: %d fused multiply–adds from %d source lines", instrs, len(found))
	listed := map[fusedLine]bool{}
	for _, e := range fusedAllowlist {
		if e.reason == "" {
			t.Errorf("%s: allowlist entry %q has no reason", e.file, e.text)
		}
		listed[e.fusedLine] = true
		if _, ok := found[e.fusedLine]; !ok {
			t.Errorf("%s: %q no longer fuses on arm64: delete its allowlist entry", e.file, e.text)
		}
	}
	for key, at := range found {
		if !listed[key] {
			t.Errorf("%s: %q compiles to a fused multiply–add on arm64; round the product with an explicit float64 conversion", at, key.text)
		}
	}
}
