// Segment primitives of the island model's one round loop (the
// coordinator of internal/island/dist): the per-segment seed rule and
// the ring exchange. A segment is a pure function of (instance, base
// config, iteration count, seed, population). A worker may keep an
// island's live States between segments, but only as a cache it
// re-targets at the shipped population, so re-running a segment — on a
// restarted worker, after a duplicated delivery, on a different host —
// always yields the same result, which is what makes retries and warm
// restarts free of coordination. The test-only wholesale loop in the
// dist package, which rebuilds every State from its schedule at every
// segment, is the reference the round loop is pinned against.
package island

import (
	"sort"

	"gridcma/internal/schedule"
)

// SegmentSeed derives island i's RNG seed for the segment starting at
// iteration totalIters. It is the one seed-derivation rule of every
// segment: same (seed, island, offset) → same stream, wherever the
// segment runs.
func SegmentSeed(seed uint64, island, totalIters int) uint64 {
	return seed ^ (uint64(island)+1)*0x9e3779b97f4a7c15 ^ uint64(totalIters)*0xbf58476d1ce4e5b9
}

// Move is one migrant placement: the individual at SrcIdx in island Src
// replaces the individual at DstIdx in island Dst. Sources are read
// before any destination is written (migrants are never forwarded twice
// in one exchange), so a Move list is applied by cloning all sources
// first.
type Move struct {
	Src, SrcIdx int
	Dst, DstIdx int
}

// rankByFitness returns population indices best-first. The comparator and
// sort call are shared by every migration path so that equal-fitness ties
// break identically everywhere.
func rankByFitness(fits []float64) []int {
	order := make([]int, len(fits))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return fits[order[a]] < fits[order[b]] })
	return order
}

// PlanMigration computes the ring exchange over the alive islands: each
// alive island sends its m best individuals to the next alive island on
// the ring, replacing that island's worst (both ranked before any
// replacement). fits[i] holds island i's per-individual fitness values;
// alive[i]==false (or a nil fits[i]) heals the ring around a dead island
// — its population neither sends nor receives, and its neighbours splice
// together. A nil alive slice means all islands are alive. A sole
// survivor exchanges with nobody.
func PlanMigration(fits [][]float64, m int, alive []bool) []Move {
	n := len(fits)
	isAlive := func(i int) bool {
		return (alive == nil || alive[i]) && fits[i] != nil
	}
	orders := make([][]int, n)
	for i := range fits {
		if isAlive(i) {
			orders[i] = rankByFitness(fits[i])
		}
	}
	var moves []Move
	for i := 0; i < n; i++ {
		if !isAlive(i) {
			continue
		}
		dst := -1
		for step := 1; step < n; step++ {
			c := (i + step) % n
			if isAlive(c) {
				dst = c
				break
			}
		}
		if dst < 0 || dst == i {
			continue
		}
		order := orders[dst]
		for k := 0; k < m && k < len(orders[i]) && k < len(order); k++ {
			moves = append(moves, Move{
				Src: i, SrcIdx: orders[i][k],
				Dst: dst, DstIdx: order[len(order)-1-k],
			})
		}
	}
	return moves
}

// ApplyMigration executes a Move list over schedule populations: sources
// are cloned first, then written over their victims. Shared by the
// coordinator and its test-only wholesale reference.
func ApplyMigration(pops [][]schedule.Schedule, moves []Move) {
	migs := make([]schedule.Schedule, len(moves))
	for k, mv := range moves {
		migs[k] = pops[mv.Src][mv.SrcIdx].Clone()
	}
	for k, mv := range moves {
		pops[mv.Dst][mv.DstIdx] = migs[k]
	}
}
