package etc

import (
	"encoding/hex"
	"sync"
	"testing"
	"unsafe"
)

func mustSpec(t *testing.T, s string) GenSpec {
	t.Helper()
	g, err := ParseGenSpec(s)
	if err != nil {
		t.Fatalf("ParseGenSpec(%q): %v", s, err)
	}
	return g
}

func mustGen(t *testing.T, g GenSpec) *Instance {
	t.Helper()
	in, err := g.Generate()
	if err != nil {
		t.Fatalf("Generate(%v): %v", g, err)
	}
	return in
}

func TestParseGenSpec(t *testing.T) {
	cases := []struct {
		in   string
		want GenSpec
	}{
		{"512x16", GenSpec{512, 16, Class{Inconsistent, High, High}, 1}},
		{"100000x1000:c_hihi:s7", GenSpec{100000, 1000, Class{Consistent, High, High}, 7}},
		{"48x6:s_lohi:s3", GenSpec{48, 6, Class{SemiConsistent, Low, High}, 3}},
		{"8192x128:i_lolo", GenSpec{8192, 128, Class{Inconsistent, Low, Low}, 1}},
	}
	for _, c := range cases {
		got, err := ParseGenSpec(c.in)
		if err != nil {
			t.Fatalf("ParseGenSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseGenSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Canonical form round-trips.
		back, err := ParseGenSpec(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q = %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"", "512", "0x16", "512x0", "512x16:q_hihi", "512x16:c_hi", "512x16:sx",
		"3037000500x3037000500", "100000000000x100000000", "2147483649x1", "100000x1000:c_hihi:s7:f32"} {
		if _, err := ParseGenSpec(bad); err == nil {
			t.Errorf("ParseGenSpec(%q): want error", bad)
		}
	}
	// Generate validates a spec built without ParseGenSpec the same way.
	if _, err := (GenSpec{Jobs: 3037000500, Machs: 3037000500}).Generate(); err == nil {
		t.Error("Generate accepted 3037000500x3037000500")
	}
}

// FuzzParseGenSpec: ParseGenSpec never panics, and an accepted spec's
// canonical String form parses back to an equal GenSpec. The corpus is
// the accepted and rejected specs TestParseGenSpec pins.
func FuzzParseGenSpec(f *testing.F) {
	for _, s := range []string{"512x16", "100000x1000:c_hihi:s7", "48x6:s_lohi:s3", "8192x128:i_lolo",
		"", "512", "0x16", "512x0", "512x16:q_hihi", "512x16:c_hi", "512x16:sx",
		"3037000500x3037000500", "100000000000x100000000", "2147483649x1", "100000x1000:c_hihi:s7:f32"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseGenSpec(s)
		if err != nil {
			return
		}
		back, err := ParseGenSpec(g.String())
		if err != nil || back != g {
			t.Fatalf("%q parsed as %+v; its String %q parses as %+v, %v", s, g, g.String(), back, err)
		}
	})
}

// TestGenSpecGoldenDigests pins generated matrices byte for byte: the
// generator's determinism contract is cross-process and cross-platform,
// so these digests must never change. A change means every committed
// frontier benchmark row describes a different instance.
func TestGenSpecGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"64x8:c_hihi:s1": "6a0492f0fa5ce4d40cacdbeefbf364c08d92cecf2554d18eabd38b512948484c",
		"48x6:s_lohi:s3": "aa12b2f20e96157fdbee52beececf00a80a4bca0b7179c1d3d62c0823047f19b",
		// Every path of the consistency sort: low heterogeneity, an odd
		// machine count (a last even column with no odd partner), and
		// rows of one and two machines (the kernel's trivial and
		// smallest inputs).
		"64x8:c_lolo:s2": "4e30e9fe9c200325120b4425a1763f4e3e2ec735a3f226f3f6095666f0015b0e",
		"33x7:s_hihi:s4": "ee91ca8c871d7c67ba1c49c8ffecead214ae3b165455690a94d42e05b023bc14",
		"40x1:c_hihi:s5": "da366fa01a31924e13e713bfeb963d5834b721c9be8029c6351e8f5de4f58bb5",
		"40x1:s_lolo:s6": "641a238ded854d763e100e8208393bbeb6a34ee95d8e054ef7cd0ac349ac3778",
		"40x2:s_hihi:s8": "5f5b730258c8d722ed0341cb2865916ebfcc38c192d5ddc5dc37b10dfee346f3",
	}
	for spec, want := range golden {
		in := mustGen(t, mustSpec(t, spec))
		got := matrixDigest(in)
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("%s: digest %x, want %s", spec, got, want)
		}
	}
}

// TestGenSpecDeterminism: same spec ⇒ identical digest across repeated and
// concurrent generations (the concurrency matters under -race: the
// generator must not share hidden mutable state between calls).
func TestGenSpecDeterminism(t *testing.T) {
	specs := []string{
		"200x16:c_hihi:s1", "200x16:i_hilo:s2", "200x16:s_lohi:s3",
		"200x16:i_lolo:s4", "200x16:s_hilo:s5",
	}
	for _, s := range specs {
		g := mustSpec(t, s)
		ref := matrixDigest(mustGen(t, g))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in, err := g.Generate()
				if err != nil {
					t.Errorf("%s: %v", s, err)
					return
				}
				if matrixDigest(in) != ref {
					t.Errorf("%s: concurrent regeneration produced a different matrix", s)
				}
			}()
		}
		wg.Wait()
		// Different seed ⇒ different matrix.
		g2 := g
		g2.Seed++
		if matrixDigest(mustGen(t, g2)) == ref {
			t.Errorf("%s: seed change did not change the matrix", s)
		}
	}
}

func TestGenSpecInstanceProperties(t *testing.T) {
	for _, s := range []string{"300x24:c_hihi:s5", "300x24:c_lolo:s5"} {
		g := mustSpec(t, s)
		in := mustGen(t, g)
		if in.Name != g.InstanceName() {
			t.Errorf("%s: name %q, want %q", s, in.Name, g.InstanceName())
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
		if !isConsistent(in) {
			t.Errorf("%s: consistent class generated an inconsistent matrix", s)
		}
		// Finalize ran: derived fields are usable.
		if in.Workload(0) <= 0 || in.Speed(0) <= 0 {
			t.Errorf("%s: bad derived fields", s)
		}
		wantBytes := in.Jobs*in.Machs*8 + in.Machs*8 + in.Jobs*8 + in.Machs*8
		if in.Bytes() != wantBytes {
			t.Errorf("%s: Bytes() = %d, want %d", s, in.Bytes(), wantBytes)
		}
	}
}

// TestGenerateIntoReuse: a same-shape regeneration must reuse the backing
// arrays (the frontier ladder regenerates in place) and still produce the
// exact matrix a fresh Generate does.
func TestGenerateIntoReuse(t *testing.T) {
	gA := mustSpec(t, "128x16:c_hihi:s1")
	gB := mustSpec(t, "128x16:i_lolo:s2")
	in := mustGen(t, gA)
	p0 := unsafe.SliceData(in.ETC)
	out, err := gB.GenerateInto(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != in || unsafe.SliceData(out.ETC) != p0 {
		t.Error("same-shape GenerateInto reallocated the matrix")
	}
	if matrixDigest(out) != matrixDigest(mustGen(t, gB)) {
		t.Error("GenerateInto result differs from fresh Generate")
	}
	if out.Name != gB.InstanceName() {
		t.Errorf("name %q not restamped", out.Name)
	}
}

// TestFinalizeReuse: re-finalizing a same-shape instance must not allocate
// (the daemon re-extracts live instances every admission cycle) and must
// leave the derived fields bit-identical.
func TestFinalizeReuse(t *testing.T) {
	in := mustGen(t, mustSpec(t, "256x16:i_hihi:s1"))
	w0, s0 := in.Workload(7), in.Speed(3)
	pw := unsafe.SliceData(in.workload)
	ps := unsafe.SliceData(in.speed)
	allocs := testing.AllocsPerRun(10, in.Finalize)
	if allocs != 0 {
		t.Errorf("same-shape Finalize allocates %v per call, want 0", allocs)
	}
	if unsafe.SliceData(in.workload) != pw || unsafe.SliceData(in.speed) != ps {
		t.Error("same-shape Finalize reallocated derived arrays")
	}
	if in.Workload(7) != w0 || in.Speed(3) != s0 {
		t.Error("re-finalize changed derived values")
	}
}

// BenchmarkGenerateInto guards the steady-state generator: regenerating a
// same-shape instance performs zero allocations in every consistency
// class (CI's allocation guard runs this at -benchtime 1x).
func BenchmarkGenerateInto(b *testing.B) {
	for _, class := range []string{"c_hihi", "s_hihi", "i_hihi"} {
		b.Run(class, func(b *testing.B) {
			g, err := ParseGenSpec("1024x64:" + class + ":s1")
			if err != nil {
				b.Fatal(err)
			}
			in, err := g.Generate()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.GenerateInto(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
