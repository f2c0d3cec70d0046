// Package localsearch implements the memetic component of the paper's
// cellular algorithm: the three studied local search methods — Local Move
// (LM), Steepest Local Move (SLM) and Local Minimum Completion Time Swap
// (LMCTS, the tuned choice) — plus a sampled LMCTS variant and a
// variable-neighborhood chain used by the extension benches.
//
// Every method improves a live schedule.State in place, runs for a bounded
// number of iterations (Table 1: nb_local_search_iterations = 5) and never
// worsens the objective: each proposed step is applied only if it improves
// the scalarised fitness. Candidates are scored speculatively — SLM's
// all-targets transfer over the vector move sweep
// (State.FitnessAfterMoveSweep), LMCTS's critical-machine pairing over the
// bounded critical-swap scan (ScanCache.BestCriticalSwap), single
// candidates over the scalar probes — all bit-identical to
// apply→evaluate→revert but allocation-free and several times cheaper, so the methods are probe-then-commit: only an
// accepted step mutates the state. Each method also threads the current
// fitness through its loop (the probe contract guarantees the probe value
// of a committed step equals the state's next fitness bit for bit), so
// the accept baseline costs nothing per candidate.
//
// The scans run through the state's scan cache (schedule.ScanCache):
// LMCTS's full critical scan is one pass over the partner machines that
// carries the best pair found so far as the next machine's bound and
// skips, in SPT order, every pair that provably loses; LM's probes run
// through the cache's frozen-state context, revalidated only when a
// commit moves the state's epoch. Both remain bit-identical to the full
// rescan, so trajectories (and the golden matrix) are unchanged.
package localsearch

import (
	"fmt"

	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// Method is a bounded-effort improvement procedure.
type Method interface {
	// Improve applies up to iters improvement attempts to st under
	// objective o. It must leave st no worse than it found it.
	Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source)
	Name() string
}

// ByName resolves a method from its paper acronym.
func ByName(s string) (Method, error) {
	switch s {
	case "LM", "lm":
		return LM{}, nil
	case "SLM", "slm":
		return SLM{}, nil
	case "LMCTS", "lmcts":
		return LMCTS{}, nil
	case "LMCTS-sampled", "lmcts-sampled":
		return SampledLMCTS{Samples: 64}, nil
	case "VND", "vnd":
		return Chain{LM{}, SLM{}, LMCTS{}}, nil
	case "none", "":
		return None{}, nil
	default:
		return nil, fmt.Errorf("localsearch: unknown method %q", s)
	}
}

// Names lists the methods available through ByName.
func Names() []string {
	return []string{"LM", "SLM", "LMCTS", "LMCTS-sampled", "VND", "none"}
}

// None is the identity method: a cMA with None degenerates to a cellular
// GA, which the ablation benches exploit.
type None struct{}

// Improve implements Method.
func (None) Improve(*schedule.State, schedule.Objective, int, *rng.Source) {}

// Name implements Method.
func (None) Name() string { return "none" }

// LM (Local Move) proposes a uniformly random job-to-machine move each
// iteration and keeps it only if the fitness improves. The candidate is
// evaluated through the scan cache's frozen-state probe context — bit
// identical to the scalar probe, with the accept baseline and the
// tournament-tree walk revalidated only when a commit moves the epoch —
// so a rejected proposal touches neither the state nor the tree.
type LM struct{}

// Improve implements Method.
func (LM) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	in := st.Instance()
	sc := st.Scans(o)
	cur := sc.Fitness()
	for k := 0; k < iters; k++ {
		j := r.Intn(in.Jobs)
		to := r.Intn(in.Machs)
		from := st.Assign(j)
		if from == to {
			continue
		}
		if f := sc.FitnessAfterMove(j, to); f < cur {
			st.Move(j, to)
			cur = f
		}
	}
}

// Name implements Method.
func (LM) Name() string { return "LM" }

// SLM (Steepest Local Move) picks a random job and transfers it to the
// machine yielding the best fitness among all targets, if that improves
// on the current assignment. All M targets are scored with one batched
// sweep (State.FitnessAfterMoveSweep) — the source machine's removal
// replay and tree query are paid once per iteration instead of once per
// target — and only the winning transfer commits.
type SLM struct{}

// Improve implements Method.
func (SLM) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	in := st.Instance()
	sc := st.Scans(o)
	for k := 0; k < iters; k++ {
		j := r.Intn(in.Jobs)
		if _, to := sc.BestMoveTarget(j); to != st.Assign(j) {
			st.Move(j, to)
		}
	}
}

// Name implements Method.
func (SLM) Name() string { return "SLM" }

// LMCTS (Local Minimum Completion Time Swap) is the tuned method of the
// paper: swap two jobs on different machines, choosing the pair that best
// reduces completion time. The candidate set pairs every job on the
// current critical (makespan) machine with every job on the other
// machines; the swap minimising the larger of the two new completion times
// is applied when it improves the fitness. The scan is the state's
// ScanCache.BestCriticalSwap: one bounded pass that picks the exact swap
// the historical full scan picked.
type LMCTS struct{}

// Improve implements Method.
func (LMCTS) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	sc := st.Scans(o)
	cur := sc.Fitness()
	for k := 0; k < iters; k++ {
		f, ok := cachedCriticalSwap(st, sc, o, cur)
		if !ok {
			break // local optimum for this neighborhood
		}
		cur = f
	}
}

// Name implements Method.
func (LMCTS) Name() string { return "LMCTS" }

// SampledLMCTS is LMCTS with the partner side sampled: instead of scanning
// all jobs on non-critical machines it examines at most Samples random
// partners per iteration. It trades solution quality per step for a large
// constant-factor speedup on big instances.
type SampledLMCTS struct {
	Samples int
}

// Improve implements Method.
func (s SampledLMCTS) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	n := s.Samples
	if n <= 0 {
		n = 64
	}
	cur := o.Of(st)
	for k := 0; k < iters; k++ {
		f, ok := bestCriticalSwap(st, o, cur, n, r)
		if !ok {
			break
		}
		cur = f
	}
}

// Name implements Method.
func (s SampledLMCTS) Name() string { return "LMCTS-sampled" }

// tryCommitSwap is the shared accept-and-commit tail of every critical
// swap step: the candidate already reduces the critical completion pair,
// so all that remains is the fitness gate — the scalarised objective must
// not regress (flowtime could in principle degrade more than makespan
// gains). The probe answers that without applying the swap, so a
// rejected candidate costs no state churn at all.
func tryCommitSwap(st *schedule.State, o schedule.Objective, cur float64, a, b int) (float64, bool) {
	f := st.FitnessAfterSwap(o, a, b)
	if f >= cur {
		return cur, false
	}
	st.Swap(a, b)
	return f, true
}

// cachedCriticalSwap performs one steepest swap step of the full LMCTS
// neighborhood through the state's scan cache: the bounded pass of
// BestCriticalSwap finds the winner — value and (a, b) pair — that the
// full sweep finds (sweepCriticalSwap, the test reference). The swap
// must reduce the critical completion pair strictly, and the scalarised
// fitness must improve (checked with the speculative probe before any
// state churn).
func cachedCriticalSwap(st *schedule.State, sc *schedule.ScanCache, o schedule.Objective, cur float64) (float64, bool) {
	v, a, b := sc.BestCriticalSwap()
	if b < 0 || v >= st.Completion(st.MakespanMachine()) {
		return cur, false
	}
	return tryCommitSwap(st, o, cur, a, b)
}

// bestCriticalSwap performs one steepest swap step between the critical
// machine and samples random partner jobs per critical job (drawn from r,
// one at a time, so sampling allocates nothing) — the SampledLMCTS path,
// given the state's current fitness cur. Returns the fitness after the
// step and whether a swap was applied.
func bestCriticalSwap(st *schedule.State, o schedule.Objective, cur float64, samples int, r *rng.Source) (float64, bool) {
	_, a, b := sampledCriticalSwap(st, samples, r)
	if a < 0 {
		return cur, false
	}
	return tryCommitSwap(st, o, cur, a, b)
}

// etcElem is the element type of either ETC backing: float64, or the
// float32 of etc.GenSpec.Float32.
type etcElem interface{ ~float32 | ~float64 }

// sampledCriticalSwap scans samples random partners per critical job and
// returns the best completion pair max(aC, bC) found below the critical
// completion with its swap (a, b), or a < 0 when none is. Candidates fold
// strict-<, so among ties the first draw wins.
func sampledCriticalSwap(st *schedule.State, samples int, r *rng.Source) (bestMax float64, a, b int) {
	if etcs := st.Instance().ETC; etcs != nil {
		return sampleSwaps(st, etcs, samples, r)
	}
	return sampleSwaps(st, st.Instance().ETC32, samples, r)
}

// sampleBatch is the number of partners sampleSwaps draws and loads
// before it folds them: the default Samples, so one batch covers a
// critical job at the default setting.
const sampleBatch = 64

// sampleSwaps is the sampled scan over one ETC backing. A candidate's
// critical side aC = (completion[crit] − ETC[a][crit]) + ETC[b][crit]
// needs one matrix load from the critical machine's column — a's base is
// hoisted per critical job — and it screens the sample: only a partner
// with aC < bestMax reads its machine mb and mb's column, at b and at a,
// for bC = (completion[mb] − ETC[b][mb]) + ETC[a][mb]. Both screens are
// written !(x < bestMax) so a NaN is rejected as the fold of max(aC, bC)
// rejects it, and every sample still consumes its one draw, so the winner,
// its value bits and the RNG stream match the unscreened scan exactly.
//
// The matrix is machine-major, so every ETC[b][crit] of a step falls in
// the critical machine's column, at 16384 jobs a 128 KiB run. On a
// matrix that spills the cache an ETC[b][crit] can still miss, and about
// one sample in nine passes the screen. Loading and screening one sample
// at a time serialises those misses: the screen branch depends on the
// load, mispredicts, and the loads already in flight behind it are
// thrown away. So each critical job's samples go through three passes
// over batches of up to sampleBatch: draw every partner b in stream
// order, load every ETC[b][crit] in a loop that never branches on a
// loaded value (the loads are independent, so their misses overlap),
// then fold the batch in draw order exactly as the one-pass loop did.
func sampleSwaps[E etcElem](st *schedule.State, etc []E, samples int, r *rng.Source) (bestMax float64, bestA, bestB int) {
	jobs := st.Instance().Jobs
	assign := st.ScheduleView()
	crit := st.MakespanMachine()
	cc := st.Completion(crit)
	colC := etc[crit*jobs : (crit+1)*jobs]
	bestMax, bestA, bestB = cc, -1, -1 // any accepted swap must reduce the critical completion pair
	var bs [sampleBatch]int
	var us [sampleBatch]E
	for _, a := range st.JobsOn(crit) {
		base := cc - float64(colC[a])
		for left := samples; left > 0; left -= sampleBatch {
			n := min(left, sampleBatch)
			drawn, loaded := bs[:n], us[:n]
			for k := range drawn {
				drawn[k] = r.Intn(jobs)
			}
			for k, b := range drawn {
				loaded[k] = colC[b]
			}
			for k, b := range drawn {
				aC := base + float64(loaded[k])
				if !(aC < bestMax) {
					continue
				}
				mb := assign[b]
				if mb == crit {
					continue
				}
				bC := (st.Completion(mb) - float64(etc[mb*jobs+b])) + float64(etc[mb*jobs+int(a)])
				if !(bC < bestMax) {
					continue
				}
				bestMax, bestA, bestB = max(aC, bC), int(a), b
			}
		}
	}
	return bestMax, bestA, bestB
}

// Chain applies each method in sequence, splitting the iteration budget
// evenly (remainder to the first methods) — a minimal variable
// neighborhood descent.
type Chain []Method

// Improve implements Method.
func (c Chain) Improve(st *schedule.State, o schedule.Objective, iters int, r *rng.Source) {
	if len(c) == 0 {
		return
	}
	per := iters / len(c)
	rem := iters % len(c)
	for i, m := range c {
		n := per
		if i < rem {
			n++
		}
		if n > 0 {
			m.Improve(st, o, n, r)
		}
	}
}

// Name implements Method.
func (c Chain) Name() string {
	s := "Chain("
	for i, m := range c {
		if i > 0 {
			s += "+"
		}
		s += m.Name()
	}
	return s + ")"
}
