package operators

import (
	"fmt"

	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// Mutator perturbs an evaluated schedule in place. Mutators receive the
// live State (not just the raw vector) because the paper's rebalance
// mutation is load-aware: it needs completion times and the makespan.
type Mutator interface {
	Mutate(st *schedule.State, r *rng.Source)
	Name() string
}

// Move reassigns one random job to a random machine — the simplest
// mutation, also the per-step proposal of the LM local search.
type Move struct{}

// Mutate implements Mutator.
func (Move) Mutate(st *schedule.State, r *rng.Source) {
	in := st.Instance()
	st.Move(r.Intn(in.Jobs), r.Intn(in.Machs))
}

// Name implements Mutator.
func (Move) Name() string { return "Move" }

// Swap exchanges the machines of two random jobs.
type Swap struct{}

// Mutate implements Mutator.
func (Swap) Mutate(st *schedule.State, r *rng.Source) {
	in := st.Instance()
	st.Swap(r.Intn(in.Jobs), r.Intn(in.Jobs))
}

// Name implements Mutator.
func (Swap) Name() string { return "Swap" }

// Rebalance is the paper's mutation: transfer a job from an overloaded
// machine (load_factor = completion/makespan = 1, i.e. a machine attaining
// the makespan) to one of the less loaded machines — the first
// LessLoadedFraction of machines in increasing completion-time order.
type Rebalance struct {
	// LessLoadedFraction is the fraction of machines (by ascending
	// completion time) considered transfer targets. The paper uses 0.25.
	LessLoadedFraction float64
}

// DefaultRebalance is the paper's configuration.
var DefaultRebalance = Rebalance{LessLoadedFraction: 0.25}

// Mutate implements Mutator. It allocates nothing: the source machine is
// reservoir-sampled and the target found by partial selection, since this
// runs once per mutation update inside every engine's hot loop.
func (rb Rebalance) Mutate(st *schedule.State, r *rng.Source) {
	in := st.Instance()
	makespan := st.Makespan()
	if makespan == 0 {
		return
	}
	// Uniformly pick an overloaded machine (load factor 1 within float
	// tolerance) that actually has jobs.
	src, seen := -1, 0
	for m := 0; m < in.Machs; m++ {
		if st.Completion(m) >= makespan*(1-1e-12) && len(st.JobsOn(m)) > 0 {
			seen++
			if r.Intn(seen) == 0 {
				src = m
			}
		}
	}
	if src < 0 {
		return // all load is ready-time; nothing to transfer
	}

	// Less loaded targets: the first fraction of machines in ascending
	// (completion, id) order. Draw a rank and select that order statistic
	// by repeated minimum scans — machine counts are small.
	k := int(rb.fraction() * float64(in.Machs))
	if k < 1 {
		k = 1
	}
	idx := r.Intn(k)
	dst := -1
	prevC, prevM := 0.0, -1
	for n := 0; n <= idx; n++ {
		best := -1
		for m := 0; m < in.Machs; m++ {
			c := st.Completion(m)
			if prevM >= 0 && (c < prevC || (c == prevC && m <= prevM)) {
				continue // ranked earlier
			}
			if best < 0 || c < st.Completion(best) {
				best = m
			}
		}
		prevC, prevM = st.Completion(best), best
		dst = best
	}
	if dst == src {
		return
	}
	jobs := st.JobsOn(src)
	st.Move(int(jobs[r.Intn(len(jobs))]), dst)
}

func (rb Rebalance) fraction() float64 {
	if rb.LessLoadedFraction <= 0 || rb.LessLoadedFraction > 1 {
		return 0.25
	}
	return rb.LessLoadedFraction
}

// Name implements Mutator.
func (Rebalance) Name() string { return "Rebalance" }

// ParseMutator resolves a mutator by name.
func ParseMutator(s string) (Mutator, error) {
	switch s {
	case "move", "Move":
		return Move{}, nil
	case "swap", "Swap":
		return Swap{}, nil
	case "rebalance", "Rebalance":
		return DefaultRebalance, nil
	default:
		return nil, fmt.Errorf("operators: unknown mutator %q", s)
	}
}
