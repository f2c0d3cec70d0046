package cell

// This file is the static dependency analysis behind the block-parallel
// asynchronous cMA engine. A Partition tiles the toroidal grid into
// disjoint rectangular blocks sized to the neighborhood's interaction
// radius, classifies each block's cells into interior (cells whose whole
// neighborhood stays inside the block, hence independent of every other
// block) and boundary, colors the blocks so same-colored blocks never
// interact, and derives from all of that a wave ordering: a cover of the
// grid by pairwise-independent cell sets. Updating the cells of one wave
// concurrently — each from its own RNG stream — and committing wave by
// wave is indistinguishable from updating them sequentially, which is what
// makes the parallel engine deterministic for any worker count.

// Radius returns the axial interaction radius of a pattern: the largest
// coordinate magnitude among its offsets (1 for L5/C9, 2 for L9/C13).
// Panmictic has no finite radius and returns -1.
func Radius(p Pattern) int {
	if p == Panmictic {
		return -1
	}
	offs, ok := patternOffsets[p]
	if !ok {
		return -1
	}
	r := 0
	for _, d := range offs {
		for _, v := range d {
			if v < 0 {
				v = -v
			}
			if v > r {
				r = v
			}
		}
	}
	return r
}

// Block is one tile of a Partition.
type Block struct {
	X0, Y0, W, H int
	// Color indexes the block's class in the partition's block coloring:
	// blocks of equal color never interact, so their cells — boundary
	// included — may be updated concurrently.
	Color int
	// Cells lists the block's cells row-major; Interior the cells whose
	// neighborhood stays inside the block; Boundary the rest.
	Cells    []int
	Interior []int
	Boundary []int
}

// Partition is the precomputed parallel-update structure of a grid and
// neighborhood pattern. Construction is deterministic: the same grid and
// pattern always yield the same blocks, colors and waves.
//
// PlanWaves mutates internal scratch space, so a Partition must not be
// shared by concurrent planners; the read-only fields may be shared
// freely.
type Partition struct {
	Grid    Grid
	Pattern Pattern
	// BlocksX × BlocksY tiles cover the grid.
	BlocksX, BlocksY int
	Blocks           []Block
	// Waves covers every cell exactly once with pairwise-independent sets,
	// interior cells first. Concatenated, the waves form the canonical
	// update order of the block-parallel asynchronous engine.
	Waves [][]int
	// NumColors is the number of block color classes.
	NumColors int

	nbOf  [][]int // neighbor lists (symmetric, including self)
	level []int   // PlanWaves scratch: last level of a draw on each cell
}

// NewPartition analyses grid g under pattern p.
func NewPartition(g Grid, p Pattern) *Partition {
	n := g.Size()
	nb := NewNeighborhood(g, p)
	pt := &Partition{
		Grid:    g,
		Pattern: p,
		nbOf:    nb.Of,
		level:   make([]int, n),
	}
	pt.tile()
	pt.colorBlocks()
	pt.buildWaves()
	return pt
}

// tile splits the grid into BlocksX × BlocksY rectangles of side at least
// the pattern diameter (2·radius+1) where the grid allows it, so block
// interiors exist, and classifies interior vs boundary cells.
func (pt *Partition) tile() {
	g := pt.Grid
	r := Radius(pt.Pattern)
	if r < 0 {
		// Panmixia: every cell interacts with every other; one block, all
		// boundary.
		pt.BlocksX, pt.BlocksY = 1, 1
	} else {
		side := 2*r + 1
		pt.BlocksX = max(1, g.Width/side)
		pt.BlocksY = max(1, g.Height/side)
	}
	xs := cuts(g.Width, pt.BlocksX)
	ys := cuts(g.Height, pt.BlocksY)

	cellBlock := make([]int, g.Size())
	for by := 0; by < pt.BlocksY; by++ {
		for bx := 0; bx < pt.BlocksX; bx++ {
			b := Block{X0: xs[bx], Y0: ys[by], W: xs[bx+1] - xs[bx], H: ys[by+1] - ys[by]}
			for y := b.Y0; y < b.Y0+b.H; y++ {
				for x := b.X0; x < b.X0+b.W; x++ {
					c := g.Index(x, y)
					cellBlock[c] = len(pt.Blocks)
					b.Cells = append(b.Cells, c)
				}
			}
			pt.Blocks = append(pt.Blocks, b)
		}
	}
	for bi := range pt.Blocks {
		b := &pt.Blocks[bi]
		for _, c := range b.Cells {
			interior := true
			for _, nbc := range pt.nbOf[c] {
				if cellBlock[nbc] != bi {
					interior = false
					break
				}
			}
			if interior {
				b.Interior = append(b.Interior, c)
			} else {
				b.Boundary = append(b.Boundary, c)
			}
		}
	}
}

// cuts splits length into parts nearly equal slices, returning the
// parts+1 boundaries.
func cuts(length, parts int) []int {
	out := make([]int, parts+1)
	for i := 1; i <= parts; i++ {
		out[i] = out[i-1] + length/parts
		if i <= length%parts {
			out[i]++
		}
	}
	return out
}

// colorBlocks greedily colors the block interaction graph: two blocks
// interact when any cell of one lies in the neighborhood of a cell of the
// other.
func (pt *Partition) colorBlocks() {
	nBlocks := len(pt.Blocks)
	cellBlock := make([]int, pt.Grid.Size())
	for bi, b := range pt.Blocks {
		for _, c := range b.Cells {
			cellBlock[c] = bi
		}
	}
	adj := make([][]bool, nBlocks)
	for i := range adj {
		adj[i] = make([]bool, nBlocks)
	}
	for bi, b := range pt.Blocks {
		for _, c := range b.Cells {
			for _, nbc := range pt.nbOf[c] {
				adj[bi][cellBlock[nbc]] = true
				adj[cellBlock[nbc]][bi] = true
			}
		}
	}
	used := make([]bool, nBlocks+1)
	for bi := range pt.Blocks {
		for i := range used {
			used[i] = false
		}
		for bj := 0; bj < bi; bj++ {
			if adj[bi][bj] {
				used[pt.Blocks[bj].Color] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		pt.Blocks[bi].Color = c
		if c+1 > pt.NumColors {
			pt.NumColors = c + 1
		}
	}
}

// buildWaves covers the grid with pairwise-independent waves by greedy
// first-fit over the cells, interiors (block by block) before boundaries,
// so the big independent interior sets land in the earliest waves.
func (pt *Partition) buildWaves() {
	n := pt.Grid.Size()
	order := make([]int, 0, n)
	for _, b := range pt.Blocks {
		order = append(order, b.Interior...)
	}
	for _, b := range pt.Blocks {
		order = append(order, b.Boundary...)
	}
	// blocked[w] marks the cells conflicting with wave w's members.
	var blocked []map[int]bool
	for _, c := range order {
		placed := false
		for w := range pt.Waves {
			if !blocked[w][c] {
				pt.Waves[w] = append(pt.Waves[w], c)
				for _, nbc := range pt.nbOf[c] {
					blocked[w][nbc] = true
				}
				placed = true
				break
			}
		}
		if !placed {
			m := make(map[int]bool, len(pt.nbOf[c]))
			for _, nbc := range pt.nbOf[c] {
				m[nbc] = true
			}
			pt.Waves = append(pt.Waves, []int{c})
			blocked = append(blocked, m)
		}
	}
}

// Order returns the concatenated wave order as one permutation of the
// cells — the canonical sweep of the block-parallel engine.
func (pt *Partition) Order() []int {
	out := make([]int, 0, pt.Grid.Size())
	for _, w := range pt.Waves {
		out = append(out, w...)
	}
	return out
}

// PlanWaves groups an ordered sequence of cell draws (repeats allowed)
// into execution waves, reusing waves' backing storage. Each wave's draws
// touch pairwise-independent cells, and a draw is always placed in a later
// wave than every earlier conflicting draw. Executing the waves in order —
// with the draws of one wave in any interleaving — is therefore equivalent
// to executing the draw sequence one by one. The returned slices index
// into draws, ascending within each wave.
//
// Not safe for concurrent use (shared level scratch).
func (pt *Partition) PlanWaves(draws []int, waves [][]int) [][]int {
	for i := range pt.level {
		pt.level[i] = 0
	}
	waves = waves[:0]
	for k, c := range draws {
		lvl := 0
		for _, nbc := range pt.nbOf[c] {
			if pt.level[nbc] > lvl {
				lvl = pt.level[nbc]
			}
		}
		lvl++ // this draw runs one wave after its latest conflicting draw
		pt.level[c] = lvl
		for len(waves) < lvl {
			if len(waves) < cap(waves) {
				waves = waves[:len(waves)+1]
				waves[len(waves)-1] = waves[len(waves)-1][:0]
			} else {
				waves = append(waves, nil)
			}
		}
		waves[lvl-1] = append(waves[lvl-1], k)
	}
	return waves
}
