package cell

import (
	"sort"
	"testing"
	"testing/quick"

	"gridcma/internal/rng"
)

func TestGridIndexCoordsRoundTrip(t *testing.T) {
	g := NewGrid(5, 4)
	for i := 0; i < g.Size(); i++ {
		x, y := g.Coords(i)
		if g.Index(x, y) != i {
			t.Fatalf("round trip failed for %d", i)
		}
	}
}

func TestGridToroidalWrap(t *testing.T) {
	g := NewGrid(5, 5)
	if g.Index(-1, 0) != g.Index(4, 0) {
		t.Error("x wrap failed")
	}
	if g.Index(0, -1) != g.Index(0, 4) {
		t.Error("y wrap failed")
	}
	if g.Index(5, 5) != g.Index(0, 0) {
		t.Error("positive wrap failed")
	}
	if g.Index(-7, -9) != g.Index(3, 1) {
		t.Error("multi-wrap failed")
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(0, 3)
}

func TestNeighborhoodSizes(t *testing.T) {
	g := NewGrid(8, 8) // large enough that no offsets alias
	want := map[Pattern]int{L5: 5, L9: 9, C9: 9, C13: 13, Panmictic: 64}
	for p, n := range want {
		nb := NewNeighborhood(g, p)
		for i, list := range nb.Of {
			if len(list) != n {
				t.Errorf("%v: cell %d has %d neighbors, want %d", p, i, len(list), n)
			}
		}
	}
}

func TestNeighborhoodIncludesSelf(t *testing.T) {
	g := NewGrid(5, 5)
	for _, p := range []Pattern{L5, L9, C9, C13, Panmictic} {
		nb := NewNeighborhood(g, p)
		for i, list := range nb.Of {
			found := false
			for _, e := range list {
				if e == i {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%v: cell %d not in own neighborhood", p, i)
			}
		}
	}
}

func TestNeighborhoodNoDuplicatesOnSmallGrid(t *testing.T) {
	// On a 3x3 torus, distance-2 offsets alias distance-1 cells.
	g := NewGrid(3, 3)
	for _, p := range []Pattern{L5, L9, C9, C13} {
		nb := NewNeighborhood(g, p)
		for i, list := range nb.Of {
			seen := map[int]bool{}
			for _, e := range list {
				if seen[e] {
					t.Fatalf("%v: duplicate neighbor %d of cell %d", p, e, i)
				}
				seen[e] = true
			}
		}
	}
}

func TestL5IsVonNeumann(t *testing.T) {
	g := NewGrid(5, 5)
	nb := NewNeighborhood(g, L5)
	got := append([]int(nil), nb.Of[g.Index(2, 2)]...)
	sort.Ints(got)
	want := []int{g.Index(2, 1), g.Index(1, 2), g.Index(2, 2), g.Index(3, 2), g.Index(2, 3)}
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("L5 of centre = %v, want %v", got, want)
		}
	}
}

func TestNeighborhoodSymmetry(t *testing.T) {
	// All paper patterns are symmetric: j in N(i) iff i in N(j).
	g := NewGrid(5, 5)
	for _, p := range []Pattern{L5, L9, C9, C13} {
		nb := NewNeighborhood(g, p)
		for i, list := range nb.Of {
			for _, j := range list {
				found := false
				for _, back := range nb.Of[j] {
					if back == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%v: %d in N(%d) but not vice versa", p, j, i)
				}
			}
		}
	}
}

func TestPatternParseRoundTrip(t *testing.T) {
	for _, p := range []Pattern{L5, L9, C9, C13, Panmictic} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("X7"); err == nil {
		t.Error("expected error")
	}
}

func TestOrderParseRoundTrip(t *testing.T) {
	for _, o := range []Order{FLS, FRS, NRS} {
		got, err := ParseOrder(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOrder(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseOrder("XYZ"); err == nil {
		t.Error("expected error")
	}
}

// coversAll drains one pass of a sweep and checks it visits every cell
// exactly once.
func coversAll(t *testing.T, s SweepOrder, size int) []int {
	t.Helper()
	seen := make([]int, 0, size)
	counts := make(map[int]int)
	for i := 0; i < size; i++ {
		c := s.Next()
		counts[c]++
		seen = append(seen, c)
	}
	for c := 0; c < size; c++ {
		if counts[c] != 1 {
			t.Fatalf("%T: cell %d visited %d times in one pass", s, c, counts[c])
		}
	}
	return seen
}

func TestSweepsArePermutationsEachPass(t *testing.T) {
	const size = 25
	for _, o := range []Order{FLS, FRS, NRS} {
		s := NewSweep(o, size, rng.New(1))
		for pass := 0; pass < 3; pass++ {
			coversAll(t, s, size)
		}
	}
}

func TestFLSIsSequential(t *testing.T) {
	s := NewSweep(FLS, 10, rng.New(1))
	for i := 0; i < 10; i++ {
		if got := s.Next(); got != i {
			t.Fatalf("FLS[%d] = %d", i, got)
		}
	}
}

func TestFRSRepeatsSamePermutation(t *testing.T) {
	s := NewSweep(FRS, 25, rng.New(2))
	p1 := coversAll(t, s, 25)
	p2 := coversAll(t, s, 25)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("FRS changed permutation between passes")
		}
	}
}

func TestNRSChangesPermutation(t *testing.T) {
	s := NewSweep(NRS, 25, rng.New(3))
	p1 := coversAll(t, s, 25)
	p2 := coversAll(t, s, 25)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("NRS reused the same permutation (astronomically unlikely)")
	}
}

func TestPanmicticSharesOneSlice(t *testing.T) {
	g := NewGrid(4, 4)
	nb := NewNeighborhood(g, Panmictic)
	if &nb.Of[0][0] != &nb.Of[5][0] {
		t.Error("panmictic neighborhoods should share storage")
	}
}

func TestNeighborhoodProperty(t *testing.T) {
	// All neighbor indices are in range on arbitrary grid sizes.
	f := func(w, h uint8, pIdx uint8) bool {
		gw, gh := int(w%7)+1, int(h%7)+1
		g := NewGrid(gw, gh)
		p := []Pattern{L5, L9, C9, C13, Panmictic}[int(pIdx)%5]
		nb := NewNeighborhood(g, p)
		for _, list := range nb.Of {
			if len(list) == 0 {
				return false
			}
			for _, e := range list {
				if e < 0 || e >= g.Size() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
