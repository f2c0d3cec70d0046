package etc

import (
	"math"
	"testing"
	"testing/quick"

	"gridcma/internal/rng"
)

// GenSpec is the CVB generator: these tests hold its distribution to the
// method's shape, where TestGenSpecGoldenDigests pins its bytes.

func TestCVBValidation(t *testing.T) {
	for _, g := range []GenSpec{{Jobs: 0, Machs: 4}, {Jobs: 4, Machs: 0}, {Jobs: -1, Machs: 4}} {
		if _, err := g.Generate(); err == nil {
			t.Errorf("%d×%d accepted", g.Jobs, g.Machs)
		}
	}
}

func TestCVBDefaultsAndValidity(t *testing.T) {
	g := mustSpec(t, "512x16")
	if want := (Class{Consistency: Inconsistent, JobHet: High, MachineHet: High}); g.Class != want || g.Seed != 1 {
		t.Fatalf("defaults: class %v seed %d, want i_hihi seed 1", g.Class, g.Seed)
	}
	if err := mustGen(t, g).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCVBDeterministic(t *testing.T) {
	g := mustSpec(t, "32x8:s_lohi:s9")
	a, b := mustGen(t, g), mustGen(t, g)
	for i := range a.ETC {
		if a.ETC[i] != b.ETC[i] {
			t.Fatal("CVB not deterministic")
		}
	}
}

// etcMeanCV returns the mean of the instance's entries and their
// coefficient of variation.
func etcMeanCV(in *Instance) (mean, cv float64) {
	sum, n := 0.0, float64(len(in.ETC))
	for _, v := range in.ETC {
		sum += v
	}
	mean = sum / n
	ss := 0.0
	for _, v := range in.ETC {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/n) / mean
}

func TestCVBMeanTracksTaskMean(t *testing.T) {
	for _, s := range []string{"400x16:i_lolo:s3", "400x16:i_hihi:s3"} {
		if mean, _ := etcMeanCV(mustGen(t, mustSpec(t, s))); mean < 0.7*GenTaskMean || mean > 1.3*GenTaskMean {
			t.Errorf("%s: overall mean %v far from GenTaskMean %v", s, mean, GenTaskMean)
		}
	}
}

func TestCVBHeterogeneityScalesWithCV(t *testing.T) {
	_, lo := etcMeanCV(mustGen(t, mustSpec(t, "300x8:i_lolo:s5")))
	_, hi := etcMeanCV(mustGen(t, mustSpec(t, "300x8:i_hihi:s5")))
	if hi <= 2*lo {
		t.Errorf("high-heterogeneity instance (CV %v) should be much more spread than low (CV %v)", hi, lo)
	}
	// Each level moves its own axis: job heterogeneity spreads the rows'
	// means, machine heterogeneity the entries within a row.
	_, hilo := etcMeanCV(mustGen(t, mustSpec(t, "300x8:i_hilo:s5")))
	_, lohi := etcMeanCV(mustGen(t, mustSpec(t, "300x8:i_lohi:s5")))
	if hilo <= lo || lohi <= lo || hi <= hilo || hi <= lohi {
		t.Errorf("CV lolo %v, hilo %v, lohi %v, hihi %v: not ordered by heterogeneity", lo, hilo, lohi, hi)
	}
}

func TestCVBConsistencyTransforms(t *testing.T) {
	if !isConsistent(mustGen(t, mustSpec(t, "60x8:c_hihi:s7"))) {
		t.Error("consistent CVB instance not consistent")
	}
	semi := mustGen(t, mustSpec(t, "60x8:s_hihi:s7"))
	for i := 0; i < semi.Jobs; i++ {
		prev := math.Inf(-1)
		for j := 0; j < semi.Machs; j += 2 {
			if semi.At(i, j) < prev {
				t.Fatal("semi-consistent CVB: even columns not sorted")
			}
			prev = semi.At(i, j)
		}
	}
	if isConsistent(mustGen(t, mustSpec(t, "60x8:i_hihi:s7"))) {
		t.Error("inconsistent CVB instance is consistent")
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
	f := func(seed uint64, classIdx uint8) bool {
		g := GenSpec{Jobs: 16, Machs: 4, Seed: seed, Class: Class{
			Consistency: Consistency(classIdx % 3),
			JobHet:      Heterogeneity(classIdx / 3 % 2),
			MachineHet:  Heterogeneity(classIdx / 6 % 2),
		}}
		in, err := g.Generate()
		return err == nil && in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
