package schedule

import "math"

// maxTree is an indexed tournament tree over a fixed-size array of
// float64 values (one leaf per machine). It maintains the argmax under
// point updates in O(log n) and answers three queries in O(1) / O(log n):
// the maximum, the lowest-index leaf attaining it, and the maximum over
// all leaves excluding one or two given indices — the query that lets a
// speculative move probe compute a hypothetical makespan without touching
// the other machines.
//
// Ties break toward the lower leaf index: the leaves are laid out in
// index order under a perfect binary tree, and an internal node keeps its
// left child's winner unless the right child's value is strictly larger,
// so the overall winner is always the first leaf attaining the maximum —
// the same machine the pre-tree linear scan of MakespanMachine returned.
type maxTree struct {
	n    int       // leaf count
	base int       // first leaf slot; power of two, >= n
	win  []int32   // win[v] = winning leaf index of subtree v; -1 when empty
	val  []float64 // leaf values, len n
}

// init sizes the tree for n leaves, all starting at value 0.
func (t *maxTree) init(n int) {
	base := 1
	for base < n {
		base <<= 1
	}
	t.n, t.base = n, base
	t.win = make([]int32, 2*base)
	t.val = make([]float64, n)
	for i := range t.win {
		t.win[i] = -1
	}
	for i := 0; i < n; i++ {
		t.win[base+i] = int32(i)
	}
	for v := base - 1; v >= 1; v-- {
		t.win[v] = t.merge(t.win[2*v], t.win[2*v+1])
	}
}

// copyFrom overwrites t with src (same leaf count), reusing buffers.
func (t *maxTree) copyFrom(src *maxTree) {
	copy(t.win, src.win)
	copy(t.val, src.val)
}

// merge combines two subtree winners, preferring the left (lower-index)
// one on ties.
func (t *maxTree) merge(l, r int32) int32 {
	switch {
	case l < 0:
		return r
	case r < 0:
		return l
	case t.val[r] > t.val[l]:
		return r
	default:
		return l
	}
}

// update sets leaf i to v and repairs the path to the root.
func (t *maxTree) update(i int, v float64) {
	t.val[i] = v
	for node := (t.base + i) >> 1; node >= 1; node >>= 1 {
		t.win[node] = t.merge(t.win[2*node], t.win[2*node+1])
	}
}

// max returns the largest leaf value.
func (t *maxTree) max() float64 {
	if t.win[1] < 0 {
		return math.Inf(-1)
	}
	return t.val[t.win[1]]
}

// argmax returns the lowest leaf index attaining the maximum.
func (t *maxTree) argmax() int { return int(t.win[1]) }

// maxExcluding returns the largest value among leaves other than i, or
// -Inf when no other leaf exists.
func (t *maxTree) maxExcluding(i int) float64 {
	v, _ := t.maxExcludingArg(i)
	return v
}

// maxExcludingArg is maxExcluding reporting a witness: the largest value
// among leaves other than i together with a leaf attaining it, or
// (-Inf, -1) when no other leaf exists. Among tied leaves the reported
// index is unspecified — callers (the sweep layer's top-completion cache,
// sweep.go) use it only to exclude that leaf from a further query, which
// any tied witness serves equally because the excluded value survives at
// the other tied leaves.
func (t *maxTree) maxExcludingArg(i int) (float64, int) {
	best := int32(-1)
	for v := t.base + i; v > 1; v >>= 1 {
		if w := t.win[v^1]; w >= 0 && (best < 0 || t.val[w] > t.val[best]) {
			best = w
		}
	}
	if best < 0 {
		return math.Inf(-1), -1
	}
	return t.val[best], int(best)
}

// maxExcluding2 returns the largest value among leaves other than i and
// j (i != j), or -Inf when no other leaf exists. Both leaf-to-root paths
// are walked together: below their meeting point each step contributes
// the sibling subtree of each path unless that sibling is the other path
// itself, and above it the walk continues as a single path.
func (t *maxTree) maxExcluding2(i, j int) float64 {
	best := int32(-1)
	note := func(w int32) {
		if w >= 0 && (best < 0 || t.val[w] > t.val[best]) {
			best = w
		}
	}
	vi, vj := t.base+i, t.base+j
	for vi != vj {
		if vi^1 != vj { // not siblings: both sibling subtrees are clean
			note(t.win[vi^1])
			note(t.win[vj^1])
		}
		vi >>= 1
		vj >>= 1
	}
	for ; vi > 1; vi >>= 1 {
		note(t.win[vi^1])
	}
	if best < 0 {
		return math.Inf(-1)
	}
	return t.val[best]
}
