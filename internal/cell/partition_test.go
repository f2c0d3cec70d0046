package cell

import (
	"testing"

	"gridcma/internal/rng"
)

var partitionShapes = []struct {
	w, h int
	p    Pattern
}{
	{5, 5, C9}, // the paper's grid
	{5, 5, L5},
	{8, 8, C9},
	{10, 6, C13},
	{7, 7, L9},
	{3, 3, C9}, // every cell neighbors every other except none
	{5, 5, Panmictic},
	{16, 16, C9},
}

func TestRadius(t *testing.T) {
	want := map[Pattern]int{L5: 1, C9: 1, L9: 2, C13: 2, Panmictic: -1}
	for p, r := range want {
		if got := Radius(p); got != r {
			t.Errorf("Radius(%v) = %d, want %d", p, got, r)
		}
	}
}

func TestPartitionBlocksTileGrid(t *testing.T) {
	for _, s := range partitionShapes {
		g := NewGrid(s.w, s.h)
		pt := NewPartition(g, s.p)
		seen := make([]int, g.Size())
		for _, b := range pt.Blocks {
			if len(b.Cells) != len(b.Interior)+len(b.Boundary) {
				t.Fatalf("%dx%d %v: block cells != interior+boundary", s.w, s.h, s.p)
			}
			for _, c := range b.Cells {
				seen[c]++
			}
		}
		for c, n := range seen {
			if n != 1 {
				t.Fatalf("%dx%d %v: cell %d covered %d times", s.w, s.h, s.p, c, n)
			}
		}
		if len(pt.Blocks) != pt.BlocksX*pt.BlocksY {
			t.Fatalf("%dx%d %v: %d blocks, want %d", s.w, s.h, s.p, len(pt.Blocks), pt.BlocksX*pt.BlocksY)
		}
	}
}

// Interior cells must have their entire neighborhood inside their own
// block — the property that makes block interiors independent work units.
func TestPartitionInteriorsStayInBlock(t *testing.T) {
	for _, s := range partitionShapes {
		g := NewGrid(s.w, s.h)
		pt := NewPartition(g, s.p)
		nb := NewNeighborhood(g, s.p)
		for bi, b := range pt.Blocks {
			inBlock := make(map[int]bool, len(b.Cells))
			for _, c := range b.Cells {
				inBlock[c] = true
			}
			for _, c := range b.Interior {
				for _, n := range nb.Of[c] {
					if !inBlock[n] {
						t.Fatalf("%dx%d %v block %d: interior cell %d has neighbor %d outside",
							s.w, s.h, s.p, bi, c, n)
					}
				}
			}
		}
	}
}

// Blocks of equal color must not interact: no cell of one may lie in the
// neighborhood of a cell of the other.
func TestPartitionSameColorBlocksIndependent(t *testing.T) {
	for _, s := range partitionShapes {
		g := NewGrid(s.w, s.h)
		pt := NewPartition(g, s.p)
		nb := NewNeighborhood(g, s.p)
		for i, a := range pt.Blocks {
			for j, b := range pt.Blocks {
				if i >= j || a.Color != b.Color {
					continue
				}
				inB := make(map[int]bool, len(b.Cells))
				for _, c := range b.Cells {
					inB[c] = true
				}
				for _, c := range a.Cells {
					for _, n := range nb.Of[c] {
						if inB[n] {
							t.Fatalf("%dx%d %v: same-color blocks %d,%d interact via %d->%d",
								s.w, s.h, s.p, i, j, c, n)
						}
					}
				}
			}
		}
	}
}

func TestPartitionWavesCoverAndIndependent(t *testing.T) {
	for _, s := range partitionShapes {
		g := NewGrid(s.w, s.h)
		pt := NewPartition(g, s.p)
		seen := make([]int, g.Size())
		for _, w := range pt.Waves {
			for i, a := range w {
				seen[a]++
				for _, b := range w[i+1:] {
					if !independent(pt, a, b) {
						t.Fatalf("%dx%d %v: wave holds interacting cells %d,%d", s.w, s.h, s.p, a, b)
					}
				}
			}
		}
		for c, n := range seen {
			if n != 1 {
				t.Fatalf("%dx%d %v: cell %d in %d waves", s.w, s.h, s.p, c, n)
			}
		}
		if ord := pt.Order(); len(ord) != g.Size() {
			t.Fatalf("Order length %d, want %d", len(ord), g.Size())
		}
	}
}

func TestPanmicticWavesAreSingletons(t *testing.T) {
	pt := NewPartition(NewGrid(4, 4), Panmictic)
	for _, w := range pt.Waves {
		if len(w) != 1 {
			t.Fatalf("panmictic wave of size %d", len(w))
		}
	}
}

// PlanWaves must place every draw exactly once, keep waves internally
// independent, and schedule a draw strictly after every earlier
// conflicting draw — the property that makes wave-parallel execution
// equivalent to the sequential draw order.
func TestPlanWavesSequentialEquivalence(t *testing.T) {
	for _, s := range partitionShapes {
		g := NewGrid(s.w, s.h)
		pt := NewPartition(g, s.p)
		r := rng.New(42)
		draws := make([]int, 3*g.Size()/2)
		for i := range draws {
			draws[i] = r.Intn(g.Size())
		}
		waves := pt.PlanWaves(draws, nil)

		waveOf := make(map[int]int, len(draws))
		for wi, w := range waves {
			for _, k := range w {
				if _, dup := waveOf[k]; dup {
					t.Fatalf("%v: draw %d scheduled twice", s.p, k)
				}
				waveOf[k] = wi
			}
		}
		if len(waveOf) != len(draws) {
			t.Fatalf("%v: %d draws scheduled, want %d", s.p, len(waveOf), len(draws))
		}
		for i := 0; i < len(draws); i++ {
			for j := i + 1; j < len(draws); j++ {
				conflict := draws[i] == draws[j] || !independent(pt, draws[i], draws[j])
				if conflict && waveOf[i] >= waveOf[j] {
					t.Fatalf("%v: conflicting draws %d(cell %d) and %d(cell %d) in waves %d,%d",
						s.p, i, draws[i], j, draws[j], waveOf[i], waveOf[j])
				}
				if !conflict && waveOf[i] == waveOf[j] {
					continue // independent draws may share a wave
				}
			}
		}
	}
}

// PlanWaves with the partition's own wave order as the draw sequence must
// reproduce waves at least as wide as the precomputed ones — the parallel
// engine's sweeps rely on this to get real concurrency.
func TestPlanWavesRecoversWaveOrderParallelism(t *testing.T) {
	pt := NewPartition(NewGrid(8, 8), C9)
	waves := pt.PlanWaves(pt.Order(), nil)
	if len(waves) > len(pt.Waves) {
		t.Fatalf("wave order planned into %d waves, precomputed %d", len(waves), len(pt.Waves))
	}
	widest := 0
	for _, w := range waves {
		if len(w) > widest {
			widest = len(w)
		}
	}
	if widest < 4 {
		t.Fatalf("widest wave %d on an 8x8 C9 grid; expected real parallelism", widest)
	}
}

func TestPlanWavesReusesBuffers(t *testing.T) {
	pt := NewPartition(NewGrid(5, 5), C9)
	draws := pt.Order()
	waves := pt.PlanWaves(draws, nil)
	again := pt.PlanWaves(draws, waves)
	if len(again) != len(waves) {
		t.Fatalf("replanning changed wave count: %d vs %d", len(again), len(waves))
	}
	for i := range again {
		for j := range again[i] {
			if again[i][j] != waves[i][j] {
				// waves was reused as backing storage, so contents must match
				t.Fatalf("replanning changed wave %d", i)
			}
		}
	}
}

func TestFLSDrawsDegradeGracefully(t *testing.T) {
	// Row-major draws chain conflicts under C9, so PlanWaves must fall
	// back to (near-)sequential waves rather than break correctness.
	pt := NewPartition(NewGrid(5, 5), C9)
	draws := make([]int, 25)
	for i := range draws {
		draws[i] = i
	}
	waves := pt.PlanWaves(draws, nil)
	for _, w := range waves {
		for i, a := range w {
			for _, b := range w[i+1:] {
				if !independent(pt, draws[a], draws[b]) {
					t.Fatal("interacting draws share a wave")
				}
			}
		}
	}
}

// independent reports whether cells a and b may be updated concurrently:
// neither lies in the other's neighborhood and they are distinct.
func independent(pt *Partition, a, b int) bool {
	if a == b {
		return false
	}
	for _, c := range pt.nbOf[a] {
		if c == b {
			return false
		}
	}
	for _, c := range pt.nbOf[b] {
		if c == a {
			return false
		}
	}
	return true
}
