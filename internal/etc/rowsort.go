package etc

import (
	"math"
	"math/bits"
)

// Braun's consistency classes are built by sorting rows: every entry of a
// consistent row, the even columns of a semi-consistent one. A row holds
// one entry per machine, each finite and ≥ 1, and sortRow orders it for
// both generators (GenSpec and the range-based Generate) with one of two
// kernels, chosen by the number n of entries it sorts:
//
//   - n ≤ 16: a fixed compare–exchange network (net8 for n ≤ 8, net16
//     above), straight-line over the entries' bits in locals, with no
//     branch. That covers a consistent row of up to 16 machines and the
//     even columns of a semi-consistent row of up to 32: all 12 Braun
//     instances (512×16).
//   - n > 16: a counting sort. A prefix of the bits is a bucket index
//     that orders the buckets; an insertion pass then orders the few
//     entries that share a bucket.
//
// Both rely on math.Float64bits being monotone in the value for
// non-negative floats. A multiset has only one ascending order, so
// either kernel writes exactly what a comparison sort would, byte for
// byte, and the cut changes no matrix.
//
// Why the cut sits at 16 (BenchmarkSortRow; 2 vCPUs, Go 1.24.0, best /
// median of ten 1 s runs, a fresh Braun-like row per op): a short row
// never earns back the counting kernel's fixed costs — a min/max pass, a
// division for the bucket shift, a clear of up to 2n+1 counts, a prefix
// sum, a scatter and an insertion pass. On 16 entries at stride 1 it
// took 163 / 229 ns and net16 54 / 67 ns; on 8 entries at stride 2 it
// took 68 / 120 ns and net8 36 / 47 ns (net16, padded, about twice net8).
// Past 16 entries the counting kernel stays ahead: a prototype sorting
// 16-entry network blocks and joining them with branch-free merges read
// 1,909 against 1,249 ns on 64-entry rows and 8,327 against 3,827 ns on
// 256-entry rows (best of 30 rounds), so batch-large's 256 machines and
// island-tcp's 64 keep the counting kernel.

// rowSorter is the counting kernel's scratch: the row's entries as float
// bits and the bucket counts; the networks need none. A GenSpec instance
// keeps its own, so a same-shape GenerateInto reuses it and allocates
// nothing; the Braun generator, which always builds a fresh instance,
// uses one per call, and at 16 machines never grows it.
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
// non-negative (never -0), where their bits order them as their values
// do. Up to 16 sorted entries take a network, more the counting kernel.
func sortRow(row []float64, stride int, s *rowSorter) {
	n := (len(row) + stride - 1) / stride
	switch {
	case n > 16:
		countingSort(row, n, stride, s)
	case stride == 1 && n == 16:
		net16((*[16]float64)(row)) // a consistent 16-machine row, in place
	default:
		sortShort(row, n, stride)
	}
}

// countingSort is sortRow's kernel for n > 16 entries.
func countingSort(row []float64, n, stride int, s *rowSorter) {
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
	if lo == hi {
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

// sortShort is sortRow for n ≤ 16 entries that are not already one
// contiguous 16-entry array: it gathers them into a local array padded
// with +Inf, above every finite entry, runs the smaller network that
// fits, and scatters the first n outputs, the row's entries in order,
// back to their columns.
func sortShort(row []float64, n, stride int) {
	var k [16]float64
	size := 8
	if n > 8 {
		size = 16
	}
	for i := n; i < size; i++ {
		k[i] = math.Inf(1)
	}
	for i := range n {
		k[i] = row[i*stride]
	}
	if size == 8 {
		net8((*[8]float64)(k[:8]))
	} else {
		net16(&k)
	}
	for i := range n {
		row[i*stride] = k[i]
	}
}

// net16 sorts k with Green's 16-input network: 60 compare–exchanges in
// 10 layers, over the entries' bits held in locals. Integer min and max
// compile to conditional moves, so the network holds no branch.
func net16(k *[16]float64) {
	a0, a1, a2, a3 := math.Float64bits(k[0]), math.Float64bits(k[1]), math.Float64bits(k[2]), math.Float64bits(k[3])
	a4, a5, a6, a7 := math.Float64bits(k[4]), math.Float64bits(k[5]), math.Float64bits(k[6]), math.Float64bits(k[7])
	a8, a9, a10, a11 := math.Float64bits(k[8]), math.Float64bits(k[9]), math.Float64bits(k[10]), math.Float64bits(k[11])
	a12, a13, a14, a15 := math.Float64bits(k[12]), math.Float64bits(k[13]), math.Float64bits(k[14]), math.Float64bits(k[15])

	a0, a13 = min(a0, a13), max(a0, a13)
	a1, a12 = min(a1, a12), max(a1, a12)
	a2, a15 = min(a2, a15), max(a2, a15)
	a3, a14 = min(a3, a14), max(a3, a14)
	a4, a8 = min(a4, a8), max(a4, a8)
	a5, a6 = min(a5, a6), max(a5, a6)
	a7, a11 = min(a7, a11), max(a7, a11)
	a9, a10 = min(a9, a10), max(a9, a10)

	a0, a5 = min(a0, a5), max(a0, a5)
	a1, a7 = min(a1, a7), max(a1, a7)
	a2, a9 = min(a2, a9), max(a2, a9)
	a3, a4 = min(a3, a4), max(a3, a4)
	a6, a13 = min(a6, a13), max(a6, a13)
	a8, a14 = min(a8, a14), max(a8, a14)
	a10, a15 = min(a10, a15), max(a10, a15)
	a11, a12 = min(a11, a12), max(a11, a12)

	a0, a1 = min(a0, a1), max(a0, a1)
	a2, a3 = min(a2, a3), max(a2, a3)
	a4, a5 = min(a4, a5), max(a4, a5)
	a6, a8 = min(a6, a8), max(a6, a8)
	a7, a9 = min(a7, a9), max(a7, a9)
	a10, a11 = min(a10, a11), max(a10, a11)
	a12, a13 = min(a12, a13), max(a12, a13)
	a14, a15 = min(a14, a15), max(a14, a15)

	a0, a2 = min(a0, a2), max(a0, a2)
	a1, a3 = min(a1, a3), max(a1, a3)
	a4, a10 = min(a4, a10), max(a4, a10)
	a5, a11 = min(a5, a11), max(a5, a11)
	a6, a7 = min(a6, a7), max(a6, a7)
	a8, a9 = min(a8, a9), max(a8, a9)
	a12, a14 = min(a12, a14), max(a12, a14)
	a13, a15 = min(a13, a15), max(a13, a15)

	a1, a2 = min(a1, a2), max(a1, a2)
	a3, a12 = min(a3, a12), max(a3, a12)
	a4, a6 = min(a4, a6), max(a4, a6)
	a5, a7 = min(a5, a7), max(a5, a7)
	a8, a10 = min(a8, a10), max(a8, a10)
	a9, a11 = min(a9, a11), max(a9, a11)
	a13, a14 = min(a13, a14), max(a13, a14)

	a1, a4 = min(a1, a4), max(a1, a4)
	a2, a6 = min(a2, a6), max(a2, a6)
	a5, a8 = min(a5, a8), max(a5, a8)
	a7, a10 = min(a7, a10), max(a7, a10)
	a9, a13 = min(a9, a13), max(a9, a13)
	a11, a14 = min(a11, a14), max(a11, a14)

	a2, a4 = min(a2, a4), max(a2, a4)
	a3, a6 = min(a3, a6), max(a3, a6)
	a9, a12 = min(a9, a12), max(a9, a12)
	a11, a13 = min(a11, a13), max(a11, a13)

	a3, a5 = min(a3, a5), max(a3, a5)
	a6, a8 = min(a6, a8), max(a6, a8)
	a7, a9 = min(a7, a9), max(a7, a9)
	a10, a12 = min(a10, a12), max(a10, a12)

	a3, a4 = min(a3, a4), max(a3, a4)
	a5, a6 = min(a5, a6), max(a5, a6)
	a7, a8 = min(a7, a8), max(a7, a8)
	a9, a10 = min(a9, a10), max(a9, a10)
	a11, a12 = min(a11, a12), max(a11, a12)

	a6, a7 = min(a6, a7), max(a6, a7)
	a8, a9 = min(a8, a9), max(a8, a9)

	k[0], k[1], k[2], k[3] = math.Float64frombits(a0), math.Float64frombits(a1), math.Float64frombits(a2), math.Float64frombits(a3)
	k[4], k[5], k[6], k[7] = math.Float64frombits(a4), math.Float64frombits(a5), math.Float64frombits(a6), math.Float64frombits(a7)
	k[8], k[9], k[10], k[11] = math.Float64frombits(a8), math.Float64frombits(a9), math.Float64frombits(a10), math.Float64frombits(a11)
	k[12], k[13], k[14], k[15] = math.Float64frombits(a12), math.Float64frombits(a13), math.Float64frombits(a14), math.Float64frombits(a15)
}

// net8 sorts k with the 8-input network of 19 compare–exchanges in 6
// layers, as net16 does.
func net8(k *[8]float64) {
	a0, a1, a2, a3 := math.Float64bits(k[0]), math.Float64bits(k[1]), math.Float64bits(k[2]), math.Float64bits(k[3])
	a4, a5, a6, a7 := math.Float64bits(k[4]), math.Float64bits(k[5]), math.Float64bits(k[6]), math.Float64bits(k[7])

	a0, a2 = min(a0, a2), max(a0, a2)
	a1, a3 = min(a1, a3), max(a1, a3)
	a4, a6 = min(a4, a6), max(a4, a6)
	a5, a7 = min(a5, a7), max(a5, a7)

	a0, a4 = min(a0, a4), max(a0, a4)
	a1, a5 = min(a1, a5), max(a1, a5)
	a2, a6 = min(a2, a6), max(a2, a6)
	a3, a7 = min(a3, a7), max(a3, a7)

	a0, a1 = min(a0, a1), max(a0, a1)
	a2, a3 = min(a2, a3), max(a2, a3)
	a4, a5 = min(a4, a5), max(a4, a5)
	a6, a7 = min(a6, a7), max(a6, a7)

	a2, a4 = min(a2, a4), max(a2, a4)
	a3, a5 = min(a3, a5), max(a3, a5)

	a1, a4 = min(a1, a4), max(a1, a4)
	a3, a6 = min(a3, a6), max(a3, a6)

	a1, a2 = min(a1, a2), max(a1, a2)
	a3, a4 = min(a3, a4), max(a3, a4)
	a5, a6 = min(a5, a6), max(a5, a6)

	k[0], k[1], k[2], k[3] = math.Float64frombits(a0), math.Float64frombits(a1), math.Float64frombits(a2), math.Float64frombits(a3)
	k[4], k[5], k[6], k[7] = math.Float64frombits(a4), math.Float64frombits(a5), math.Float64frombits(a6), math.Float64frombits(a7)
}
