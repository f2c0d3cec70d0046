// Package cell provides the structured-population substrate of the
// cellular memetic algorithm: a two-dimensional toroidal grid of cells,
// the neighborhood patterns of the paper (L5, L9, C9, C13 and panmixia),
// and the asynchronous sweep orders (Fixed Line Sweep, Fixed Random Sweep,
// New Random Sweep) that decide in which order cells are updated.
//
// The package is deliberately independent of what lives in a cell; it
// deals only in cell indices, so it is reusable for any cellular
// evolutionary algorithm.
package cell

import (
	"fmt"

	"gridcma/internal/rng"
)

// Grid is a toroidal two-dimensional lattice of Width×Height cells. Cell
// (x, y) has linear index y*Width + x; all neighborhood computations wrap
// around both axes.
type Grid struct {
	Width, Height int
}

// NewGrid returns a grid with the given dimensions. It panics on
// non-positive dimensions: the population shape is a static configuration
// error, not a runtime condition.
func NewGrid(width, height int) Grid {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("cell: invalid grid %dx%d", width, height))
	}
	return Grid{Width: width, Height: height}
}

// Size returns the number of cells.
func (g Grid) Size() int { return g.Width * g.Height }

// Index returns the linear index of (x, y), wrapping toroidally.
func (g Grid) Index(x, y int) int {
	x = mod(x, g.Width)
	y = mod(y, g.Height)
	return y*g.Width + x
}

// Coords returns the (x, y) position of a linear index.
func (g Grid) Coords(i int) (x, y int) {
	return i % g.Width, i / g.Width
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// Pattern names a neighborhood shape.
type Pattern int

const (
	// L5 is the von Neumann neighborhood: the cell plus N, S, E, W
	// (5 individuals).
	L5 Pattern = iota
	// L9 extends L5 two steps along each axis (9 individuals).
	L9
	// C9 is the Moore neighborhood: the 3×3 block around the cell
	// (9 individuals). Best performer in the paper (Table 1).
	C9
	// C13 is C9 plus the axial cells at distance two (13 individuals).
	C13
	// Panmictic makes every cell a neighbor of every other: the
	// unstructured-population limit the paper uses as a control.
	Panmictic
)

// String returns the paper's name for the pattern.
func (p Pattern) String() string {
	switch p {
	case L5:
		return "L5"
	case L9:
		return "L9"
	case C9:
		return "C9"
	case C13:
		return "C13"
	case Panmictic:
		return "Panmictic"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// ParsePattern resolves a pattern from its name (case-sensitive, as
// printed by String).
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "L5":
		return L5, nil
	case "L9":
		return L9, nil
	case "C9":
		return C9, nil
	case "C13":
		return C13, nil
	case "Panmictic", "panmictic":
		return Panmictic, nil
	default:
		return 0, fmt.Errorf("cell: unknown neighborhood pattern %q", s)
	}
}

// offsets of each finite pattern, relative to the centre cell. The centre
// itself is included: in the paper's cMA the current individual takes part
// in its own neighborhood.
var patternOffsets = map[Pattern][][2]int{
	L5: {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}},
	L9: {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {2, 0}, {-2, 0}, {0, 2}, {0, -2}},
	C9: {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}},
	C13: {{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1},
		{2, 0}, {-2, 0}, {0, 2}, {0, -2}},
}

// Neighborhood is a precomputed neighbor table: Of[i] lists the cells in
// cell i's neighborhood (including i itself).
type Neighborhood struct {
	Pattern Pattern
	Of      [][]int
}

// NewNeighborhood precomputes the neighbor lists of pattern p on grid g.
// Offsets that alias the same cell on small grids (e.g. a distance-2
// offset on a width-3 torus) are deduplicated, so neighbor lists never
// contain repeats.
func NewNeighborhood(g Grid, p Pattern) *Neighborhood {
	n := &Neighborhood{Pattern: p, Of: make([][]int, g.Size())}
	if p == Panmictic {
		all := make([]int, g.Size())
		for i := range all {
			all[i] = i
		}
		for i := range n.Of {
			n.Of[i] = all
		}
		return n
	}
	offs, ok := patternOffsets[p]
	if !ok {
		panic(fmt.Sprintf("cell: pattern %v has no offsets", p))
	}
	for i := 0; i < g.Size(); i++ {
		x, y := g.Coords(i)
		list := make([]int, 0, len(offs))
		for _, d := range offs {
			idx := g.Index(x+d[0], y+d[1])
			dup := false
			for _, e := range list {
				if e == idx {
					dup = true
					break
				}
			}
			if !dup {
				list = append(list, idx)
			}
		}
		n.Of[i] = list
	}
	return n
}

// SweepOrder is a (re)generable visiting order over the cells of a grid,
// realising the paper's asynchronous update policies. Implementations are
// NOT safe for concurrent use.
type SweepOrder interface {
	// Next returns the next cell index of the sweep. After Size calls the
	// sweep wraps to a new pass (regenerating itself if the policy says
	// so).
	Next() int
}

// Order names a sweep policy.
type Order int

const (
	// FLS (Fixed Line Sweep) visits cells row by row in index order —
	// the best performer in the paper's tuning (Fig. 5) and the Table 1
	// choice for the recombination order.
	FLS Order = iota
	// FRS (Fixed Random Sweep) visits cells in a random permutation fixed
	// once at construction and reused every pass.
	FRS
	// NRS (New Random Sweep) draws a fresh random permutation for every
	// pass — the Table 1 choice for the mutation order.
	NRS
)

// String returns the acronym.
func (o Order) String() string {
	switch o {
	case FLS:
		return "FLS"
	case FRS:
		return "FRS"
	case NRS:
		return "NRS"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// ParseOrder resolves an Order from its acronym.
func ParseOrder(s string) (Order, error) {
	switch s {
	case "FLS", "fls":
		return FLS, nil
	case "FRS", "frs":
		return FRS, nil
	case "NRS", "nrs":
		return NRS, nil
	default:
		return 0, fmt.Errorf("cell: unknown sweep order %q", s)
	}
}

// NewSweep builds a sweep order over size cells. FRS and NRS draw their
// permutations from r; FLS ignores it.
func NewSweep(o Order, size int, r *rng.Source) SweepOrder {
	if size <= 0 {
		panic("cell: sweep over empty grid")
	}
	switch o {
	case FLS:
		return &lineSweep{size: size}
	case FRS:
		return &randSweep{perm: r.Perm(size), fixed: true, r: r}
	case NRS:
		return &randSweep{perm: r.Perm(size), fixed: false, r: r}
	default:
		panic(fmt.Sprintf("cell: unknown order %v", o))
	}
}

// NewPermSweep builds a fixed sweep visiting cells in the given order
// every pass. The block-parallel cMA uses it with a Partition's wave
// order, so its sweeps stay aligned with the independent cell sets.
func NewPermSweep(perm []int) SweepOrder {
	if len(perm) == 0 {
		panic("cell: sweep over empty permutation")
	}
	return &randSweep{perm: perm, fixed: true}
}

type lineSweep struct {
	size, pos int
}

func (l *lineSweep) Next() int {
	i := l.pos
	l.pos++
	if l.pos == l.size {
		l.pos = 0
	}
	return i
}

type randSweep struct {
	perm  []int
	pos   int
	fixed bool
	r     *rng.Source
}

func (s *randSweep) Next() int {
	i := s.perm[s.pos]
	s.pos++
	if s.pos == len(s.perm) {
		s.pos = 0
		if !s.fixed {
			s.perm = s.r.Perm(len(s.perm))
		}
	}
	return i
}
