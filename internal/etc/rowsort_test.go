package etc

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"gridcma/internal/rng"
)

// FuzzSortRow: the counting-sort kernel against slices.Sort. Arbitrary
// rows of finite non-negative values, at the generators' strides (1: a
// consistent row, 2: a semi-consistent row's even columns), must come
// out byte-equal to a comparison sort of the same entries, with every
// entry off the stride untouched. One scratch serves both sorts, so the
// second reuses buckets sized by the first. The input is the row's float64 bits, little-endian, 8 bytes an
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
	// A generator's row: gamma draws around one task mean.
	var r rng.Source
	r.Reseed(1)
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
