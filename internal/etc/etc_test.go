package etc

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassName(t *testing.T) {
	cases := []struct {
		class Class
		k     int
		want  string
	}{
		{Class{Consistent, High, High}, 0, "u_c_hihi.0"},
		{Class{Inconsistent, High, Low}, 0, "u_i_hilo.0"},
		{Class{SemiConsistent, Low, High}, 3, "u_s_lohi.3"},
		{Class{Consistent, Low, Low}, 7, "u_c_lolo.7"},
	}
	for _, c := range cases {
		if got := c.class.Name(c.k); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, class := range AllClasses() {
		for _, k := range []int{0, 5, 99} {
			name := class.Name(k)
			got, gotK, err := ParseClass(name)
			if err != nil {
				t.Fatalf("ParseClass(%q): %v", name, err)
			}
			if got != class || gotK != k {
				t.Errorf("ParseClass(%q) = %v,%d want %v,%d", name, got, gotK, class, k)
			}
		}
	}
}

func TestParseClassErrors(t *testing.T) {
	for _, bad := range []string{"", "u_c_hihi", "x_c_hihi.0", "u_q_hihi.0", "u_c_xxhi.0", "u_c_hixx.0", "nonsense"} {
		if _, _, err := ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q): expected error", bad)
		}
	}
}

func TestAllClassesCount(t *testing.T) {
	cs := AllClasses()
	if len(cs) != 12 {
		t.Fatalf("got %d classes, want 12", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		n := c.Name(0)
		if seen[n] {
			t.Errorf("duplicate class %s", n)
		}
		seen[n] = true
	}
}

func TestGenerateDimensionsAndValidity(t *testing.T) {
	in := Generate(Class{Consistent, High, High}, 0, GenerateOptions{Seed: 1})
	if in.Jobs != BenchmarkJobs || in.Machs != BenchmarkMachs {
		t.Fatalf("dims %d×%d", in.Jobs, in.Machs)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(Class{Inconsistent, Low, High}, 0, GenerateOptions{Seed: 42, Jobs: 64, Machs: 8})
	b := Generate(Class{Inconsistent, Low, High}, 0, GenerateOptions{Seed: 42, Jobs: 64, Machs: 8})
	for i := range a.ETC {
		if a.ETC[i] != b.ETC[i] {
			t.Fatalf("ETC[%d] differs", i)
		}
	}
	c := Generate(Class{Inconsistent, Low, High}, 0, GenerateOptions{Seed: 43, Jobs: 64, Machs: 8})
	same := true
	for i := range a.ETC {
		if a.ETC[i] != c.ETC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical instances")
	}
}

func TestGenerateConsistency(t *testing.T) {
	cons := Generate(Class{Consistent, High, High}, 0, GenerateOptions{Seed: 7, Jobs: 100, Machs: 16})
	if !isConsistent(cons) {
		t.Error("consistent class generated inconsistent matrix")
	}
	inc := Generate(Class{Inconsistent, High, High}, 0, GenerateOptions{Seed: 7, Jobs: 100, Machs: 16})
	if isConsistent(inc) {
		t.Error("inconsistent class generated a consistent matrix (astronomically unlikely)")
	}
}

func TestGenerateSemiConsistentSubmatrix(t *testing.T) {
	in := Generate(Class{SemiConsistent, High, High}, 0, GenerateOptions{Seed: 9, Jobs: 50, Machs: 16})
	// Even columns must be sorted ascending within each row.
	for i := 0; i < in.Jobs; i++ {
		prev := math.Inf(-1)
		for j := 0; j < in.Machs; j += 2 {
			if in.At(i, j) < prev {
				t.Fatalf("row %d even columns not sorted", i)
			}
			prev = in.At(i, j)
		}
	}
	if isConsistent(in) {
		t.Error("semi-consistent matrix should not be fully consistent")
	}
}

func TestGenerateHeterogeneityRanges(t *testing.T) {
	hi := Generate(Class{Inconsistent, High, High}, 0, GenerateOptions{Seed: 3, Jobs: 200, Machs: 16})
	lo := Generate(Class{Inconsistent, Low, Low}, 0, GenerateOptions{Seed: 3, Jobs: 200, Machs: 16})
	maxHi, maxLo := 0.0, 0.0
	for _, v := range hi.ETC {
		maxHi = math.Max(maxHi, v)
	}
	for _, v := range lo.ETC {
		maxLo = math.Max(maxLo, v)
	}
	if maxHi <= TaskHeterogeneityLow*MachineHeterogeneityLow {
		t.Errorf("hihi max %v suspiciously small", maxHi)
	}
	if maxLo > TaskHeterogeneityLow*MachineHeterogeneityLow {
		t.Errorf("lolo max %v exceeds range bound %d", maxLo, TaskHeterogeneityLow*MachineHeterogeneityLow)
	}
	if maxHi < 100*maxLo {
		t.Errorf("expected ≫ spread between hihi (%v) and lolo (%v)", maxHi, maxLo)
	}
}

// TestBraunGoldenDigests pins the 12 Braun instances byte for byte, like
// TestGenSpecGoldenDigests: every instance the paper's tables, the golden
// trajectories and the batch-braun benchmark run on is a pure function of
// its name, so these digests must never change.
func TestBraunGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"u_c_hihi.0": "1decdf56700e4626bce0d46441aed031172cc8c3c6847eb56abe1ae228da981e",
		"u_c_hilo.0": "4d9a10c90b15bde755580f6436f5c051351d6374c80783bc75f1a893a60a062d",
		"u_c_lohi.0": "165ffedc8f0b6ef3c642a31b5982a99020b42c7b4cea34cae84f2ba4a4fce68f",
		"u_c_lolo.0": "9599a1e1434d10495a7409b75ceda5e487501ef02906290e0d4191ea78e8bc47",
		"u_i_hihi.0": "ee83fd076052efed97aa363ab00bf7642b4df283d827e3f5e7daadfd42378330",
		"u_i_hilo.0": "09c75d09683fc6f2a6ac3f9c139d0d35c02255d3922f4d51230f3b2658b4a644",
		"u_i_lohi.0": "a1883659424d6106502b1eb579e05510c89f7a04c71b75d7d0e5bddaf4a5e8b5",
		"u_i_lolo.0": "80bf56d3487bac7658bfbbe82fb926e0cd6d63690febdf4b36a6802cad2df8bd",
		"u_s_hihi.0": "3f29990258d7d2b616ac2bef3a9b5ed7726cd2caf7001298c47a66a8a07e712b",
		"u_s_hilo.0": "f469d2c50a69a6e10dd427c8e6371a92bb8b1c0bb9d71d1a68885fa168b3a1a2",
		"u_s_lohi.0": "635f2d1d437e87255dfaa5b9b962c5d69972752fb344ace1567180ee2f4f15e3",
		"u_s_lolo.0": "c78b8522c7bfc448185aa807ec7fc5a2ce6098344772750d119da5615058de21",
	}
	for _, c := range AllClasses() {
		name := c.Name(0)
		in, err := GenerateByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixDigest(in); hex.EncodeToString(got[:]) != golden[name] {
			t.Errorf("%s: digest %x, want %s", name, got, golden[name])
		}
	}
}

func TestGenerateByNameStable(t *testing.T) {
	a, err := GenerateByName("u_c_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateByName("u_c_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "u_c_hihi.0" {
		t.Errorf("name %q", a.Name)
	}
	for i := range a.ETC {
		if a.ETC[i] != b.ETC[i] {
			t.Fatal("GenerateByName not stable")
		}
	}
	if _, err := GenerateByName("bogus"); err == nil {
		t.Error("expected error for bogus name")
	}
}

func TestWorkloadSpeed(t *testing.T) {
	in := New("t", 2, 2)
	in.Set(0, 0, 2)
	in.Set(0, 1, 4)
	in.Set(1, 0, 6)
	in.Set(1, 1, 8)
	in.Finalize()
	if got := in.Workload(0); got != 3 {
		t.Errorf("Workload(0) = %v, want 3", got)
	}
	if got := in.Workload(1); got != 7 {
		t.Errorf("Workload(1) = %v, want 7", got)
	}
	// Machine 0 column mean = 4, machine 1 = 6: machine 0 faster.
	if !(in.Speed(0) > in.Speed(1)) {
		t.Errorf("Speed(0)=%v should exceed Speed(1)=%v", in.Speed(0), in.Speed(1))
	}
}

func TestValidateCatchesBadInstances(t *testing.T) {
	in := New("t", 2, 2)
	if err := in.Validate(); err == nil {
		t.Error("zero ETC entries should fail validation")
	}
	for i := range in.ETC {
		in.ETC[i] = 1
	}
	if err := in.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	in.Ready[0] = -1
	if err := in.Validate(); err == nil {
		t.Error("negative ready time should fail validation")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		in.Ready[0] = v
		if err := in.Validate(); err == nil {
			t.Errorf("ready time %v should fail validation", v)
		}
	}
	in.Ready[0] = 0
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		in.ETC[1] = v
		if err := in.Validate(); err == nil {
			t.Errorf("ETC entry %v should fail validation", v)
		}
	}
	in.ETC[1] = 1
	in.ETC = in.ETC[:3]
	if err := in.Validate(); err == nil {
		t.Error("truncated ETC should fail validation")
	}
}

// TestValidateNamesLogicalEntry: Validate names the first bad entry by
// its logical ETC[job][machine], in row order, whatever the storage
// order; on a 3×4 instance with bad entries at (2, 1) and (1, 3) that is
// (1, 3), although (2, 1) comes first in the machine-major storage.
func TestValidateNamesLogicalEntry(t *testing.T) {
	for _, tc := range []struct {
		bad  [][2]int
		want string
	}{
		{[][2]int{{2, 1}}, "ETC[2][1] = 0"},
		{[][2]int{{2, 1}, {1, 3}}, "ETC[1][3] = 0"},
	} {
		in := New("t", 3, 4)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				in.Set(i, j, float64(1+i*4+j))
			}
		}
		for _, b := range tc.bad {
			in.Set(b[0], b[1], 0)
		}
		err := in.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad entries %v: Validate() = %v, want it to name %q", tc.bad, err, tc.want)
		}
	}
}

func TestIORoundTrip(t *testing.T) {
	in := Generate(Class{SemiConsistent, High, Low}, 2, GenerateOptions{Seed: 5, Jobs: 20, Machs: 4})
	in.Ready[1] = 12.5
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != in.Name || got.Jobs != in.Jobs || got.Machs != in.Machs {
		t.Fatalf("header mismatch: %s %d×%d", got.Name, got.Jobs, got.Machs)
	}
	for i := range in.ETC {
		if math.Abs(got.ETC[i]-in.ETC[i]) > 1e-5 {
			t.Fatalf("ETC[%d]: got %v want %v", i, got.ETC[i], in.ETC[i])
		}
	}
	if math.Abs(got.Ready[1]-12.5) > 1e-9 {
		t.Fatalf("Ready[1] = %v", got.Ready[1])
	}
}

func TestIOFileRoundTrip(t *testing.T) {
	in := Generate(Class{Consistent, Low, Low}, 0, GenerateOptions{Seed: 2, Jobs: 6, Machs: 3})
	path := t.TempDir() + "/inst.etc"
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != 6 || got.Machs != 3 {
		t.Fatalf("dims %d×%d", got.Jobs, got.Machs)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "x y\n",
		"zero dims":     "0 4\n",
		"too few":       "2 2\n1 2 3\n",
		"bad value":     "1 2\n1 zz\n",
		"bad trailing":  "1 1\n1\nwhat\n",
		"bad ready len": "1 2\n1 2\nready: 1\n",
		"nonpositive":   "1 2\n0 1\n",
		"infinite etc":  infETC,
		"nan ready":     nanReady,
		"inf ready":     infReady,
		"overflow dims": "3037000500 3037000500\n",
		"huge dims":     "100000000000 100000000\n",
		"over cap":      "2147483649 1\n",
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// Documents strconv.ParseFloat accepts but Validate must reject: a
// non-finite ETC entry or ready time.
const (
	infETC   = "2 2\n1 inf\n1 1\n"
	nanReady = "1 2\n1 2\nready: nan 0\n"
	infReady = "1 2\n1 2\nready: inf 0\n"
)

// hugeHeader is a 16-byte document whose header passes CheckDims
// (2·10⁹ entries) but which carries two values.
const hugeHeader = "40000 50000\n1 2\n"

// TestReadDoesNotAllocateAheadOfData: a header alone must not make Read
// allocate the matrix it announces — the matrix grows only as values
// arrive, so a short input fails with a small footprint.
func TestReadDoesNotAllocateAheadOfData(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(hugeHeader))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted 2 of 2·10⁹ values")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte input", grew, len(hugeHeader))
	}
}

// headerDims returns the dimensions on the first line of text that is
// neither blank nor a comment: the header Read parses.
func headerDims(text string) (jobs, machs int) {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Sscanf(line, "%d %d", &jobs, &machs)
		break
	}
	return jobs, machs
}

// fileValues returns the ETC values of an instance file in file order:
// the fields after the header line, up to need of them.
func fileValues(t *testing.T, text string, need int) []float64 {
	t.Helper()
	var vals []float64
	header := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !header {
			header = line != "" && !strings.HasPrefix(line, "#")
			continue
		}
		for _, f := range strings.Fields(line) {
			if len(vals) == need {
				return vals
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("accepted file has a bad value %q", f)
			}
			vals = append(vals, v)
		}
	}
	return vals
}

// FuzzEtcRead drives the instance reader with arbitrary text: Read never
// panics, an accepted instance is valid with its header's dimensions and
// holds only finite values, its At(i, j) is the (i·machs+j)-th value of
// the file, and the written form of an accepted instance is a fixed
// point — if Read accepts Write(in), writing that result gives the same
// bytes again.
func FuzzEtcRead(f *testing.F) {
	small := Generate(Class{Inconsistent, High, Low}, 0, GenerateOptions{Seed: 3, Jobs: 6, Machs: 3})
	var buf bytes.Buffer
	if err := Write(&buf, small); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("2 3\n1 2 3\n4 5\n6\nready: 0.5 0 2\n")
	f.Add("# a comment\n# name: tiny\n\n1 2\n1.5 2.5\n# trailing comment\n")
	f.Add(hugeHeader)
	f.Add("1 1\n1\nready: 0.0000001\n") // a ready value Write rounds to zero
	f.Add(infETC)
	f.Add(nanReady)
	f.Add(infReady)
	f.Fuzz(func(t *testing.T, text string) {
		in, err := Read(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted instance is invalid: %v", err)
		}
		for _, vals := range [][]float64{in.ETC, in.Ready} {
			for i, v := range vals {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("accepted a non-finite value %v at %d", v, i)
				}
			}
		}
		if jobs, machs := headerDims(text); in.Jobs != jobs || in.Machs != machs {
			t.Fatalf("accepted %d×%d from header %d×%d", in.Jobs, in.Machs, jobs, machs)
		}
		vals := fileValues(t, text, in.Jobs*in.Machs)
		if len(vals) != in.Jobs*in.Machs {
			t.Fatalf("accepted %d×%d from a file of %d values", in.Jobs, in.Machs, len(vals))
		}
		for i := 0; i < in.Jobs; i++ {
			for j := 0; j < in.Machs; j++ {
				if got, want := in.At(i, j), vals[i*in.Machs+j]; got != want {
					t.Fatalf("At(%d, %d) = %v, want the file's value %d, %v", i, j, got, i*in.Machs+j, want)
				}
			}
		}
		var w1, w2 bytes.Buffer
		if err := Write(&w1, in); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(w1.Bytes()))
		if err != nil {
			return // Write rounds to six decimals: an entry may read back as 0
		}
		if err := Write(&w2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("written form is not a fixed point:\n%q\n%q", w1.String(), w2.String())
		}
	})
}

func TestGeneratePropertyPositive(t *testing.T) {
	f := func(seed uint64, classIdx uint8) bool {
		classes := AllClasses()
		class := classes[int(classIdx)%len(classes)]
		in := Generate(class, 0, GenerateOptions{Seed: seed, Jobs: 16, Machs: 4})
		return in.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConsistencyString(t *testing.T) {
	if Consistent.String() != "c" || Inconsistent.String() != "i" || SemiConsistent.String() != "s" {
		t.Error("consistency codes wrong")
	}
	if High.String() != "hi" || Low.String() != "lo" {
		t.Error("heterogeneity codes wrong")
	}
}

// A consistent grid (spread 1) has no pair noise at all.
func TestPairNoiseSpreadOneIsExact(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		if got := PairNoise(3, 5, seed, 1); got != 1 {
			t.Errorf("PairNoise(3, 5, %d, 1) = %v, want 1", seed, got)
		}
	}
}

// The noise is a pure function of its arguments, inside [1, spread), and
// its values are pinned: gridsim traces replay through the daemon only
// while both draw these exact multipliers.
func TestPairNoiseStableAndBounded(t *testing.T) {
	for j := uint64(0); j < 20; j++ {
		for m := uint64(0); m < 8; m++ {
			a, b := PairNoise(j, m, 1, 3), PairNoise(j, m, 1, 3)
			if a != b {
				t.Fatal("pair noise not stable")
			}
			if a < 1 || a >= 3 {
				t.Fatalf("pair noise %v outside [1,3)", a)
			}
		}
	}
	if got := PairNoise(3, 5, 1, 3); got != 1.6710789938358144 {
		t.Errorf("PairNoise(3, 5, 1, 3) = %v, want 1.6710789938358144", got)
	}
	if got := PairNoise(12345, 7, 42, 1.5); got != 1.334145458781086 {
		t.Errorf("PairNoise(12345, 7, 42, 1.5) = %v, want 1.334145458781086", got)
	}
}
