package etc

import (
	"math"
	"math/bits"
)

// Braun's consistency classes are built by sorting rows: every entry of a
// consistent row, the even columns of a semi-consistent one. A row holds
// one entry per machine, each finite and ≥ 1, so one counting-sort kernel
// orders it for both generators (GenSpec and the range-based Generate).
// For non-negative floats math.Float64bits is monotone in the value, so
// a prefix of the bits is a bucket index that orders the buckets; an
// insertion pass then orders the few entries that share a bucket. A multiset has only one ascending order, so the kernel writes
// exactly what a comparison sort would, byte for byte.

// rowSorter is the kernel's scratch: the row's entries as float bits and
// the bucket counts. A GenSpec instance keeps its own, so a same-shape
// GenerateInto reuses it and allocates nothing; the Braun generator,
// which always builds a fresh instance, uses one per call.
type rowSorter struct {
	keys   []uint64
	counts []int
}

// consistify applies cons to a freshly drawn row: a consistent row is
// sorted ascending, a semi-consistent row has its even columns sorted in
// place and its odd columns left as drawn.
func consistify(row []float64, cons Consistency, s *rowSorter) {
	switch cons {
	case Consistent:
		sortRow(row, 1, s)
	case SemiConsistent:
		sortRow(row, 2, s)
	}
}

// sortRow sorts row[0], row[stride], row[2·stride], … ascending in place
// and leaves every other entry untouched. The entries must be finite and
// non-negative (never -0), where their bits order them as their values do.
func sortRow(row []float64, stride int, s *rowSorter) {
	n := (len(row) + stride - 1) / stride
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.counts = make([]int, 2*n+1)
	}
	keys := s.keys[:n]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for k := range keys {
		b := math.Float64bits(row[k*stride])
		keys[k] = b
		lo, hi = min(lo, b), max(hi, b)
	}
	if n < 2 || lo == hi {
		return
	}
	// The smallest shift that leaves at most 2n buckets: span>>shift < 2n.
	span := hi - lo
	shift := uint(bits.Len64(span / uint64(2*n)))
	counts := s.counts[:span>>shift+2]
	clear(counts)
	for _, b := range keys {
		counts[(b-lo)>>shift+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1] // counts[i] is now where bucket i starts
	}
	for _, b := range keys {
		c := &counts[(b-lo)>>shift]
		row[*c*stride] = math.Float64frombits(b)
		*c++
	}
	// The buckets are in order; sort within each.
	for k := 1; k < n; k++ {
		v := row[k*stride]
		h := k
		for ; h > 0 && row[(h-1)*stride] > v; h-- {
			row[h*stride] = row[(h-1)*stride]
		}
		row[h*stride] = v
	}
}
