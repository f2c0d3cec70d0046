package etc

import (
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"gridcma/internal/rng"
)

func TestCVBValidation(t *testing.T) {
	bad := []CVBOptions{
		{TaskMean: 0, Vtask: 0.5, Vmach: 0.5},
		{TaskMean: 100, Vtask: 0, Vmach: 0.5},
		{TaskMean: 100, Vtask: 0.5, Vmach: -1},
		{Jobs: -1, TaskMean: 100, Vtask: 0.5, Vmach: 0.5},
	}
	for i, o := range bad {
		if _, err := GenerateCVB("t", o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCVBDefaultsAndValidity(t *testing.T) {
	in, err := GenerateCVB("cvb", CVBOptions{TaskMean: 100, Vtask: 0.6, Vmach: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if in.Jobs != BenchmarkJobs || in.Machs != BenchmarkMachs {
		t.Fatalf("dims %d×%d", in.Jobs, in.Machs)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCVBDeterministic(t *testing.T) {
	o := CVBOptions{Jobs: 32, Machs: 8, TaskMean: 50, Vtask: 0.3, Vmach: 0.3, Seed: 9}
	a, _ := GenerateCVB("a", o)
	b, _ := GenerateCVB("b", o)
	for i := range a.ETC {
		if a.ETC[i] != b.ETC[i] {
			t.Fatal("CVB not deterministic")
		}
	}
}

// TestCVBGoldenDigests pins CVB matrices byte for byte, like
// TestGenSpecGoldenDigests: GenerateCVB shares its row loop with the
// GenSpec generator, and every consistency, default dimensions and a
// task CV above 1 (the gamma shape < 1 branch) must keep their draws.
func TestCVBGoldenDigests(t *testing.T) {
	cases := []struct {
		o    CVBOptions
		want string
	}{
		{CVBOptions{Jobs: 40, Machs: 7, TaskMean: 50, Vtask: 0.3, Vmach: 0.6, Consistency: Inconsistent, Seed: 5},
			"a82b94f29d3800b12c0ae8ae919e62917f1ff60f1f7079f3b7052665077b1082"},
		{CVBOptions{Jobs: 40, Machs: 7, TaskMean: 50, Vtask: 0.3, Vmach: 0.6, Consistency: Consistent, Seed: 5},
			"5cbd945f092b8cfd9daa4e687c5077fc64c9924ade288f44053eacfb23902543"},
		{CVBOptions{Jobs: 40, Machs: 7, TaskMean: 50, Vtask: 0.3, Vmach: 0.6, Consistency: SemiConsistent, Seed: 5},
			"b799f8a8c5db6bc5ea14171617e47b8084b258fa26c8d2973490b44017d086fc"},
		{CVBOptions{TaskMean: 1000, Vtask: 1.5, Vmach: 0.1, Consistency: SemiConsistent, Seed: 11},
			"12a31717c5a46ad8c3bb4522ea9fad5ebed1bb3a453335634f180560a2770b3d"},
		{CVBOptions{TaskMean: 1000, Vtask: 2, Vmach: 1.2, Consistency: Consistent, Seed: 2},
			"7fa015c8b2ab67cbed120851428fa3e99fdc23db914be6c500b9a2f80b27d2f4"},
		// A small task mean under a machine CV of 3 clamps most entries
		// to 1.0: rows of long equal runs beside a few spread values.
		{CVBOptions{Jobs: 30, Machs: 9, TaskMean: 2, Vtask: 0.5, Vmach: 3, Consistency: Consistent, Seed: 3},
			"600188b7af90133657f39ed6d28cf1266891714f6f52ed9f125fa0d787e00615"},
		{CVBOptions{Jobs: 30, Machs: 9, TaskMean: 2, Vtask: 0.5, Vmach: 3, Consistency: SemiConsistent, Seed: 3},
			"0273260045b707af0309b2dffc853c313c7ec836ed08fa15f2528ffb7813f8e3"},
	}
	for i, c := range cases {
		in, err := GenerateCVB("cvb", c.o)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.MatrixDigest(); hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: digest %x, want %s", i, got, c.want)
		}
	}
}

func TestCVBMeanTracksTaskMean(t *testing.T) {
	o := CVBOptions{Jobs: 400, Machs: 16, TaskMean: 1000, Vtask: 0.3, Vmach: 0.3, Seed: 3}
	in, err := GenerateCVB("t", o)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range in.ETC {
		sum += v
	}
	mean := sum / float64(len(in.ETC))
	if mean < 700 || mean > 1300 {
		t.Errorf("overall mean %v far from TaskMean 1000", mean)
	}
}

func TestCVBHeterogeneityScalesWithCV(t *testing.T) {
	lo, _ := GenerateCVB("lo", CVBOptions{Jobs: 300, Machs: 8, TaskMean: 100, Vtask: 0.1, Vmach: 0.1, Seed: 5})
	hi, _ := GenerateCVB("hi", CVBOptions{Jobs: 300, Machs: 8, TaskMean: 100, Vtask: 0.9, Vmach: 0.9, Seed: 5})
	cv := func(in *Instance) float64 {
		sum, n := 0.0, float64(len(in.ETC))
		for _, v := range in.ETC {
			sum += v
		}
		mean := sum / n
		ss := 0.0
		for _, v := range in.ETC {
			d := v - mean
			ss += d * d
		}
		return math.Sqrt(ss/n) / mean
	}
	if cv(hi) <= 2*cv(lo) {
		t.Errorf("high-CV instance (%v) should be much more spread than low-CV (%v)", cv(hi), cv(lo))
	}
}

func TestCVBConsistencyTransforms(t *testing.T) {
	cons, err := GenerateCVB("c", CVBOptions{Jobs: 60, Machs: 8, TaskMean: 100,
		Vtask: 0.5, Vmach: 0.5, Consistency: Consistent, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.IsConsistent() {
		t.Error("consistent CVB instance not consistent")
	}
	semi, _ := GenerateCVB("s", CVBOptions{Jobs: 60, Machs: 8, TaskMean: 100,
		Vtask: 0.5, Vmach: 0.5, Consistency: SemiConsistent, Seed: 7})
	for i := 0; i < semi.Jobs; i++ {
		prev := math.Inf(-1)
		for j := 0; j < semi.Machs; j += 2 {
			if semi.At(i, j) < prev {
				t.Fatal("semi-consistent CVB: even columns not sorted")
			}
			prev = semi.At(i, j)
		}
	}
}

func TestGammaMomentsRoughlyCorrect(t *testing.T) {
	r := rng.New(11)
	const shape, scale, n = 4.0, 25.0, 20000
	sum, ss := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := gamma(r, shape, scale)
		if v <= 0 {
			t.Fatal("gamma produced non-positive draw")
		}
		sum += v
	}
	mean := sum / n
	r2 := rng.New(12)
	for i := 0; i < n; i++ {
		d := gamma(r2, shape, scale) - shape*scale
		ss += d * d
	}
	variance := ss / n
	if math.Abs(mean-shape*scale) > 0.05*shape*scale {
		t.Errorf("gamma mean %v, want ~%v", mean, shape*scale)
	}
	if math.Abs(variance-shape*scale*scale)/(shape*scale*scale) > 0.15 {
		t.Errorf("gamma variance %v, want ~%v", variance, shape*scale*scale)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := rng.New(13)
	const shape, scale, n = 0.5, 10.0, 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := gamma(r, shape, scale)
		if v <= 0 {
			t.Fatal("non-positive draw for shape < 1")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-shape*scale) > 0.1*shape*scale {
		t.Errorf("gamma(0.5) mean %v, want ~%v", mean, shape*scale)
	}
}

func TestNormalMoments(t *testing.T) {
	r := rng.New(17)
	const n = 50000
	sum, ss := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := normal(r)
		sum += v
		ss += v * v
	}
	if mean := sum / n; math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if variance := ss / n; math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestCVBProperty(t *testing.T) {
	f := func(seed uint64, consIdx uint8) bool {
		o := CVBOptions{Jobs: 16, Machs: 4, TaskMean: 80, Vtask: 0.4, Vmach: 0.4,
			Consistency: Consistency(consIdx % 3), Seed: seed}
		in, err := GenerateCVB("p", o)
		return err == nil && in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
