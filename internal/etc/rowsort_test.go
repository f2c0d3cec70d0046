package etc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"gridcma/internal/rng"
)

// FuzzSortRow: both kernels against slices.Sort — the sorting networks
// that take rows of at most 16 sorted entries and the counting kernel
// that takes longer ones. Arbitrary rows of finite non-negative values,
// at the generators' strides (1: a consistent row, 2: a semi-consistent
// row's even columns), must come out byte-equal to a comparison sort of
// the same entries, with every entry off the stride untouched. One
// scratch serves both sorts, so the second reuses buckets sized by the
// first. The input is the row's float64 bits, little-endian, 8 bytes an
// entry; NaN and infinite entries are dropped and signs cleared.
func FuzzSortRow(f *testing.F) {
	row := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(row(3, 1, 3, 3, 2, 1, 3, 2, 3))                           // ties
	f.Add(row(1, 1, 1, 1, 7.5, 1, 1, 1, 2, 1, 1, 1, 1))             // runs of clamped 1.0
	f.Add(row(1000, 1000.25, 999.5, 1e300, 1000.125, 1000, 999.75)) // one far outlier over a tight cluster
	f.Add(row(5))
	f.Add(row(2, 1))
	f.Add(row(1, 2))
	f.Add(row(0, 1e-310, 1, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.5))
	f.Add(row(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)) // all equal, one network row
	f.Add(row(4, 1, 4, 1, 9, 4, 1, 4))                         // short, with ties
	// The kernel cuts: rows of 8 | 9 and 16 | 17 entries at stride 1,
	// and of 16 | 17 and 32 | 33 at stride 2.
	var r rng.Source
	r.Reseed(1)
	for _, n := range []int{8, 9, 15, 16, 17, 32, 33} {
		vs := make([]float64, n)
		for j := range vs {
			vs[j] = float64(1 + r.Intn(5)) // ties across the cut
		}
		f.Add(row(vs...))
	}
	// A generator's row: gamma draws around one task mean.
	drawn := make([]float64, 256)
	for j := range drawn {
		drawn[j] = max(gamma(&r, 1/(GenCVHigh*GenCVHigh), 1000*GenCVHigh*GenCVHigh), 1)
	}
	f.Add(row(drawn...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var row []float64
		for ; len(data) >= 8 && len(row) < 1024; data = data[8:] {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			row = append(row, v)
		}
		var s rowSorter
		for stride := 1; stride <= 2; stride++ {
			checkSortRow(t, row, stride, &s)
		}
	})
}

// TestSortRowZeroOne proves both networks exact by the 0–1 principle: a
// comparator network sorts every input if and only if it sorts every
// sequence of 0s and 1s. Every row of n = 1…16 two-valued entries, at
// strides 1 and 2, goes through sortRow, so n = 16 runs all 2^16
// sequences through the 16-input network and n = 8 all 2^8 through the
// 8-input one; the shorter rows check the padding. Each must come out as
// its 1s (here 1.0) then its 2s, with the columns off the stride
// untouched.
func TestSortRowZeroOne(t *testing.T) {
	var s rowSorter
	for stride := 1; stride <= 2; stride++ {
		for n := 1; n <= 16; n++ {
			row := make([]float64, (n-1)*stride+1)
			for mask := 0; mask < 1<<n; mask++ {
				for j := range row {
					row[j] = 7 // off the stride: must stay
				}
				ones := 0
				for k := range n {
					row[k*stride] = 1 + float64(mask>>k&1)
					ones += mask >> k & 1
				}
				sortRow(row, stride, &s)
				for j, v := range row {
					want := 7.0
					if k := j / stride; j%stride == 0 {
						want = 1
						if k >= n-ones {
							want = 2
						}
					}
					if v != want {
						t.Fatalf("n %d stride %d input %0*b: got %v", n, stride, n, mask, row)
					}
				}
			}
		}
	}
}

// checkSortRow sorts a copy of row at stride through the kernel and
// through slices.Sort and fails unless the two are byte-equal.
func checkSortRow(t *testing.T, row []float64, stride int, s *rowSorter) {
	t.Helper()
	want := slices.Clone(row)
	var picked []float64
	for j := 0; j < len(want); j += stride {
		picked = append(picked, want[j])
	}
	slices.Sort(picked)
	for k, v := range picked {
		want[k*stride] = v
	}
	got := slices.Clone(row)
	sortRow(got, stride, s)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("row %v at stride %d: kernel gave %v, slices.Sort %v", row, stride, got, want)
		}
	}
}

// BenchmarkSortRow times one row sort on each side of the kernel cut:
// a Braun consistent row (16 entries at stride 1), a Braun
// semi-consistent row's even columns (8 at stride 2), and the counting
// kernel's 64- and 256-entry rows. Each op sorts a fresh copy of one of
// 64 drawn Braun-like rows (b·U[1, 1000) entries), with warm scratch.
func BenchmarkSortRow(b *testing.B) {
	for _, c := range []struct{ n, stride int }{{16, 1}, {8, 2}, {64, 1}, {256, 1}} {
		b.Run(fmt.Sprintf("n%d_stride%d", c.n, c.stride), func(b *testing.B) {
			const rows = 64
			width := c.n * c.stride
			r := rng.New(1)
			pool := make([]float64, rows*width)
			for i := 0; i < rows; i++ {
				base := r.Uniform(1, TaskHeterogeneityHigh)
				for j := range width {
					pool[i*width+j] = base * r.Uniform(1, MachineHeterogeneityHigh)
				}
			}
			row := make([]float64, width)
			var s rowSorter
			copy(row, pool)
			sortRow(row, c.stride, &s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % rows
				copy(row, pool[k*width:(k+1)*width])
				sortRow(row, c.stride, &s)
			}
		})
	}
}
