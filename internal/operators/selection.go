// Package operators implements the variation operators of the paper's
// cellular memetic algorithm — N-tournament selection, one-point
// recombination and the load-rebalancing mutation — plus the standard
// alternatives (two-point/uniform crossover, move/swap mutation, rank and
// best selection) used by the baseline genetic algorithms and the ablation
// benches.
//
// Selection operates on candidate *indices* with a caller-supplied fitness
// accessor, so the same operators serve cellular neighborhoods and
// unstructured GA populations. Lower fitness is always better.
package operators

import (
	"fmt"
	"sort"

	"gridcma/internal/rng"
)

// Selector picks one index out of candidates. Implementations must treat
// candidates as read-only and must not retain it.
type Selector interface {
	// Select returns an element of candidates; fitness(i) is the fitness
	// of candidate value i (lower is better).
	Select(candidates []int, fitness func(int) float64, r *rng.Source) int
	Name() string
}

// Tournament is N-tournament selection: draw N candidates uniformly with
// replacement and keep the best. The paper tunes N = 3 (Table 1, Fig. 4).
type Tournament struct {
	N int
}

// NewTournament returns an N-tournament selector; it panics if n < 1.
func NewTournament(n int) Tournament {
	if n < 1 {
		panic(fmt.Sprintf("operators: tournament size %d", n))
	}
	return Tournament{N: n}
}

// Select implements Selector.
func (t Tournament) Select(candidates []int, fitness func(int) float64, r *rng.Source) int {
	if len(candidates) == 0 {
		panic("operators: Select on empty candidate set")
	}
	best := candidates[r.Intn(len(candidates))]
	bestFit := fitness(best)
	for k := 1; k < t.N; k++ {
		c := candidates[r.Intn(len(candidates))]
		if f := fitness(c); f < bestFit {
			best, bestFit = c, f
		}
	}
	return best
}

// Name implements Selector.
func (t Tournament) Name() string { return fmt.Sprintf("%d-Tournament", t.N) }

// Best deterministically selects the fittest candidate (ties to the first).
type Best struct{}

// Select implements Selector.
func (Best) Select(candidates []int, fitness func(int) float64, r *rng.Source) int {
	if len(candidates) == 0 {
		panic("operators: Select on empty candidate set")
	}
	best, bestFit := candidates[0], fitness(candidates[0])
	for _, c := range candidates[1:] {
		if f := fitness(c); f < bestFit {
			best, bestFit = c, f
		}
	}
	return best
}

// Name implements Selector.
func (Best) Name() string { return "Best" }

// Random selects uniformly, ignoring fitness.
type Random struct{}

// Select implements Selector.
func (Random) Select(candidates []int, _ func(int) float64, r *rng.Source) int {
	if len(candidates) == 0 {
		panic("operators: Select on empty candidate set")
	}
	return candidates[r.Intn(len(candidates))]
}

// Name implements Selector.
func (Random) Name() string { return "Random" }

// LinearRank selects with probability proportional to linear rank (best
// rank weighted highest), the selection used by Braun et al.'s GA.
type LinearRank struct{}

// Select implements Selector.
func (LinearRank) Select(candidates []int, fitness func(int) float64, r *rng.Source) int {
	n := len(candidates)
	if n == 0 {
		panic("operators: Select on empty candidate set")
	}
	if n == 1 {
		return candidates[0]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return fitness(candidates[order[a]]) < fitness(candidates[order[b]])
	})
	// Rank weights n, n-1, ..., 1 over order[0..n-1]; total n(n+1)/2.
	total := n * (n + 1) / 2
	pick := r.Intn(total)
	acc := 0
	for i, idx := range order {
		acc += n - i
		if pick < acc {
			return candidates[idx]
		}
	}
	return candidates[order[n-1]] // unreachable
}

// Name implements Selector.
func (LinearRank) Name() string { return "LinearRank" }

// SelectDistinctInto selects k distinct candidates using sel, retrying on
// collisions (up to a bound, then filling with unused candidates in
// order). It is the "SelectToRecombine S ⊆ N_P" step of Algorithm 1: the
// paper sets |S| = nb_solutions_to_recombine = 3. It writes into out's
// backing array (grown if needed), so a caller-kept buffer makes
// selection allocation-free. k is small, so distinctness is checked by
// linear scan rather than a set.
func SelectDistinctInto(sel Selector, k int, candidates []int, fitness func(int) float64, r *rng.Source, out []int) []int {
	if k > len(candidates) {
		k = len(candidates)
	}
	out = out[:0]
	contains := func(c int) bool {
		for _, x := range out {
			if x == c {
				return true
			}
		}
		return false
	}
	for tries := 0; len(out) < k && tries < 20*k; tries++ {
		c := sel.Select(candidates, fitness, r)
		if !contains(c) {
			out = append(out, c)
		}
	}
	for _, c := range candidates {
		if len(out) == k {
			break
		}
		if !contains(c) {
			out = append(out, c)
		}
	}
	return out
}
