package daemon

import (
	"time"

	"gridcma/internal/heuristics"
	"gridcma/internal/schedule"
)

// ColdCheck compares the live warm-started schedule against a cold
// re-solve of the same job/machine set: extract a clean instance, seed
// with MCT, improve with LMCTS run to its local optimum. WallMs is the
// full cold cost — matrix extraction, seeding, state construction and
// converged search — i.e. what a scheduler without the warm-start path
// would pay to reschedule the grid from scratch at an admission. The asymmetric budget is the point of the
// comparison: a re-solve that stops after a handful of swaps is not a
// re-solve, while the warm path is always near its local optimum and
// absorbs each admission delta with a constant-bounded touch-up — the
// convergence cost was amortised across every earlier window.
type ColdCheck struct {
	Jobs         int     `json:"jobs"`
	Machines     int     `json:"machines"`
	Iters        int     `json:"iters"` // convergence cap handed to the search
	WallMs       float64 `json:"wall_ms"`
	ColdMakespan float64 `json:"cold_makespan"`
	ColdFlowtime float64 `json:"cold_flowtime"`
	WarmMakespan float64 `json:"warm_makespan"`
	WarmFlowtime float64 `json:"warm_flowtime"`
}

// ColdResolve takes the cold baseline's input from the current live set
// — the extracted instance and the warm schedule's quality — and returns
// the solve, which reads nothing of the grid. A caller that serialises
// access to the grid calls ColdResolve under its lock and runs the solve
// after releasing it; WallMs still counts from the extraction. The grid
// is read, never mutated. Returns false when there is nothing to solve
// (no live jobs or no alive machines).
func (g *Grid) ColdResolve() (solve func() ColdCheck, ok bool) {
	t0 := time.Now()
	in, _ := g.LiveInstance()
	if in == nil {
		return nil, false
	}
	wmk, wfl := g.Quality()
	ls, obj, lsIters := g.ls, g.obj, g.cfg.LSIters
	return func() ColdCheck {
		st := schedule.NewState(in, heuristics.MCT(in))
		// One swap per live job caps the convergence run; LMCTS stops on
		// its own at the first iteration with no improving candidate, so
		// the cap only bites on pathological plateaus.
		iters := max(in.Jobs, lsIters)
		if lsIters > 0 {
			ls.Improve(st, obj, iters, nil)
		} else {
			iters = 0
		}
		return ColdCheck{
			Jobs:         in.Jobs,
			Machines:     in.Machs,
			Iters:        iters,
			WallMs:       time.Since(t0).Seconds() * 1e3,
			ColdMakespan: st.Makespan(),
			ColdFlowtime: st.Flowtime(),
			WarmMakespan: wmk,
			WarmFlowtime: wfl,
		}
	}, true
}
