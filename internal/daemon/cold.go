package daemon

import (
	"time"

	"gridcma/internal/heuristics"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// ColdCheck compares the live warm-started schedule against a cold
// re-solve of the same job/machine set: extract a clean instance, seed
// with MCT, improve with the daemon's own method run to its local
// optimum. WallMs is the full cold cost — matrix extraction, seeding,
// state construction and converged search — i.e. what a scheduler
// without the warm-start path would pay to reschedule the grid from
// scratch at an admission. The asymmetric budget is the point of the
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

// ColdResolve runs the cold baseline against the current live set. The
// grid is read, never mutated. Returns false when there is nothing to
// solve (no live jobs or no alive machines).
func (g *Grid) ColdResolve() (ColdCheck, bool) {
	t0 := time.Now()
	in, _ := g.LiveInstance()
	if in == nil {
		return ColdCheck{}, false
	}
	st := schedule.NewState(in, heuristics.MCT(in))
	// One swap per live job caps the convergence run; LMCTS (and every
	// descent method here) stops on its own at the first iteration with
	// no improving candidate, so the cap only bites on pathological
	// plateaus.
	iters := in.Jobs
	if iters < g.cfg.LSIters {
		iters = g.cfg.LSIters
	}
	if g.cfg.LSIters > 0 {
		r := rng.New(g.cfg.Seed ^ 0xc01dca11 ^ g.counters.Admits)
		g.ls.Improve(st, g.obj, iters, r)
	} else {
		iters = 0
	}
	st.SyncScans()
	wall := time.Since(t0)
	wmk, wfl := g.Quality()
	return ColdCheck{
		Jobs:         in.Jobs,
		Machines:     in.Machs,
		Iters:        iters,
		WallMs:       wall.Seconds() * 1e3,
		ColdMakespan: st.Makespan(),
		ColdFlowtime: st.Flowtime(),
		WarmMakespan: wmk,
		WarmFlowtime: wfl,
	}, true
}
