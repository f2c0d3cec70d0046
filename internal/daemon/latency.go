package daemon

import (
	"math/bits"
	"time"
)

// latHist is a fixed-memory latency histogram over nanoseconds, in
// HdrHistogram's log-linear layout: values below 2·latSub get a bucket
// each, and every power of two above splits into latSub equal buckets.
// Recording is O(1) and count and mean are exact. A quantile reports the
// midpoint of the bucket that holds the sample of that rank, so it is
// within 1/(2·latSub) = 1/64 relative error of the exact order
// statistic. Buckets are allocated latSub at a time on first use, so a
// histogram holds at most 15 KiB however many samples it records, and
// about 3 KiB for latencies that span a few decades.
type latHist struct {
	blocks [latBlocks]*[latSub]uint64 // bucket i is blocks[i/latSub][i%latSub]
	n      uint64
	sum    uint64 // nanoseconds
}

const (
	latSubBits = 5
	latSub     = 1 << latSubBits
	latBlocks  = 65 - latSubBits // covers every uint64
)

// latBucket maps a value to its bucket: below 2·latSub the value itself,
// above it the value's shift (its bit length beyond latSubBits+1) times
// latSub plus its top latSubBits+1 bits.
func latBucket(v uint64) int {
	if v < 2*latSub {
		return int(v)
	}
	shift := bits.Len64(v) - (latSubBits + 1)
	return shift*latSub + int(v>>shift)
}

// latMid is the midpoint of the values bucket i holds.
func latMid(i int) uint64 {
	if i < 2*latSub {
		return uint64(i)
	}
	shift := i/latSub - 1
	lo := uint64(i%latSub+latSub) << shift
	return lo + (uint64(1)<<shift-1)/2
}

func (h *latHist) record(d time.Duration) {
	v := uint64(max(d, 0))
	i := latBucket(v)
	b := h.blocks[i/latSub]
	if b == nil {
		b = new([latSub]uint64)
		h.blocks[i/latSub] = b
	}
	b[i%latSub]++
	h.n++
	h.sum += v
}

// quantile returns the bucket midpoint of the sample at rank
// int(p·(n-1)) in sorted order, in nanoseconds; n must be > 0.
func (h *latHist) quantile(p float64) uint64 {
	rank := uint64(p * float64(h.n-1))
	var seen uint64
	for bi, b := range h.blocks {
		if b == nil {
			continue
		}
		for j, c := range b {
			if seen += c; seen > rank {
				return latMid(bi*latSub + j)
			}
		}
	}
	return 0 // not reached: with n > 0 some bucket holds the rank
}

// stats summarises the histogram in milliseconds.
func (h *latHist) stats() LatStats {
	s := LatStats{Count: int(h.n)}
	if h.n == 0 {
		return s
	}
	s.P50Ms = float64(h.quantile(0.50)) / 1e6
	s.P99Ms = float64(h.quantile(0.99)) / 1e6
	s.MeanMs = float64(h.sum) / float64(h.n) / 1e6
	return s
}
