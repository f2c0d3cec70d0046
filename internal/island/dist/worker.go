// Worker: the serving side of the distributed island engine. Every
// segment request still carries everything needed to reproduce the
// computation (instance spec, config, seed, population), and every reply
// is a pure function of its request, so a worker that crashes loses
// nothing the coordinator cannot re-send, and a request delivered twice
// computes the same bytes twice.
//
// What a worker keeps is a verified cache. Per instance it holds the
// materialised matrix, up to maxInstances of them. Between the calls of
// one run it also keeps a scratch pool and, per island, the mesh of live
// States that island's last segment ended with. The next segment
// re-targets those States at the shipped population (SetScheduleDiff
// re-lists only the jobs that differ: the migrants) instead of building
// every cell from its schedule. SetScheduleDiff reproduces SetSchedule
// bit for bit from any valid State, so a missing, stale or foreign cache
// entry changes the cost of a segment, never its result. The release
// call that ends a run drops the meshes and the pool, so after a run the
// worker keeps only its instances.
package dist

import (
	"context"
	"fmt"
	"sync"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
	"gridcma/internal/transport"
)

// maxInstances bounds a worker's instance cache. A coordinator runs on
// one instance, so a few entries cover a worker shared by successive or
// concurrent runs; the least recently used one, with whatever a run left
// on it, makes room for a new spec.
const maxInstances = 4

// Worker serves segment and release calls. Safe for concurrent calls (a
// coordinator may pin several islands to one worker).
type Worker struct {
	pinned *etc.Instance  // serve every spec with this instance (in-proc use)
	inner  *cma.Scheduler // serve every config with this engine (in-proc use)

	mu        sync.Mutex
	instances []*workerInstance // least recently used first
}

type workerInstance struct {
	spec string
	in   *etc.Instance
	// pool and stash are the run's working set, guarded by Worker.mu and
	// dropped by a release. take creates the pool when there is none; a
	// segment keeps the pool it took, so one still in flight at a release
	// returns its scratches to a pool nothing else holds.
	pool *evalpool.Pool
	// stash[i] is the mesh island i's last segment ended with, each
	// State's flowtime refolded (RefreshFlowtime). A segment takes its
	// island's entry out while it runs.
	stash map[int][]*schedule.State
}

// NewWorker returns a worker that materialises instances from generator
// specs ("256x16:c_hihi:s3", the etc.ParseGenSpec vocabulary) and caches
// them. This is what cmd/islandd serves: any process that can parse the
// spec reconstructs the byte-identical instance, so no matrix ever
// crosses the wire.
func NewWorker() *Worker {
	return &Worker{}
}

// NewPinnedWorker returns a worker bound to one in-memory instance,
// served whatever the request's spec says. The in-process transport uses
// it to share the coordinator's instance directly. The in-process island
// engine (InProcess) pins its built cMA too, which then serves in place
// of the request's config: a cma.Config with custom operators has no
// wire form.
func NewPinnedWorker(in *etc.Instance) *Worker {
	return &Worker{pinned: in}
}

func (w *Worker) instance(spec string) (*workerInstance, error) {
	if w.pinned != nil {
		spec = ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, wi := range w.instances {
		if wi.spec == spec {
			w.instances = append(append(w.instances[:k], w.instances[k+1:]...), wi)
			return wi, nil
		}
	}
	in := w.pinned
	if in == nil {
		gs, err := etc.ParseGenSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("dist: instance spec %q: %w", spec, err)
		}
		if in, err = gs.Generate(); err != nil {
			return nil, fmt.Errorf("dist: generate %q: %w", spec, err)
		}
	}
	if len(w.instances) == maxInstances {
		w.instances = append(w.instances[:0], w.instances[1:]...)
	}
	wi := &workerInstance{spec: spec, in: in}
	w.instances = append(w.instances, wi)
	return wi, nil
}

// take removes island's stashed mesh and returns it when it holds cells
// States (nil otherwise), with the run's scratch pool.
func (w *Worker) take(wi *workerInstance, island, cells int) ([]*schedule.State, *evalpool.Pool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if wi.pool == nil {
		wi.pool = evalpool.New(wi.in)
	}
	states := wi.stash[island]
	delete(wi.stash, island)
	if len(states) != cells {
		states = nil
	}
	return states, wi.pool
}

func (w *Worker) store(wi *workerInstance, island int, states []*schedule.State) {
	w.mu.Lock()
	if wi.stash == nil {
		wi.stash = make(map[int][]*schedule.State)
	}
	wi.stash[island] = states
	w.mu.Unlock()
}

// release drops what the runs on spec keep between segments: every
// stashed mesh and the scratch pool. The instance stays cached, and a
// spec the worker does not hold is no error.
func (w *Worker) release(spec string) {
	if w.pinned != nil {
		spec = ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, wi := range w.instances {
		if wi.spec == spec {
			wi.pool, wi.stash = nil, nil
		}
	}
}

// Handle implements transport.Handler.
func (w *Worker) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	switch req.Kind {
	case transport.KindSegment:
		seg, err := w.segment(ctx, req.Seg)
		if err != nil {
			return &transport.Response{ID: req.ID, Err: err.Error()}, nil
		}
		return &transport.Response{ID: req.ID, Seg: seg}, nil
	case transport.KindRelease:
		w.release(req.Instance)
		return &transport.Response{ID: req.ID}, nil
	default:
		return &transport.Response{ID: req.ID, Err: fmt.Sprintf("unknown call kind %q", req.Kind)}, nil
	}
}

// segment runs one migration segment: Iters iterations of the base cMA
// on the island's mesh, seeded from req.Pop (empty for the first
// segment's fresh mesh), returning the result, the evolved population
// and each individual's fitness (Fits[k] is bit-identical to
// Objective.Evaluate of Pop[k], the ranking the coordinator migrates
// by). The mesh comes from the island's stash entry, re-targeted at
// req.Pop, or is built from req.Pop when there is no usable entry; the
// segment stashes the mesh it ends with. A cancelled ctx cuts
// the segment short, as it cuts any cMA run short: the reply is then the
// segment's best so far.
func (w *Worker) segment(ctx context.Context, req *transport.SegmentRequest) (*transport.SegmentResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("segment call without a segment body")
	}
	if req.Iters < 1 {
		return nil, fmt.Errorf("dist: %d iterations, need >= 1", req.Iters)
	}
	wi, err := w.instance(req.Instance)
	if err != nil {
		return nil, err
	}
	for i, s := range req.Pop {
		if err := s.Validate(wi.in); err != nil {
			return nil, fmt.Errorf("dist: individual %d: %v", i, err)
		}
	}
	inner := w.inner
	if inner == nil {
		base, err := req.Config.Build()
		if err != nil {
			return nil, fmt.Errorf("dist: config: %v", err)
		}
		if inner, err = cma.New(base); err != nil {
			return nil, fmt.Errorf("dist: config: %v", err)
		}
	}
	base := inner.Config()
	cells := base.Width * base.Height
	if n := len(req.Pop); n != 0 && n != cells {
		return nil, fmt.Errorf("dist: population of %d for a %d-cell mesh", n, cells)
	}

	states, pool := w.take(wi, req.Island, cells)
	switch {
	case len(req.Pop) == 0:
		states = nil // a fresh mesh
	case states == nil:
		states = make([]*schedule.State, cells)
		for k, s := range req.Pop {
			states[k] = schedule.NewState(wi.in, s)
		}
	default:
		for k, s := range req.Pop {
			states[k].SetScheduleDiff(s)
			states[k].RefreshFlowtime()
		}
	}
	res, states := inner.RunWithStatesPooled(wi.in, run.Budget{MaxIterations: req.Iters}.WithContext(ctx), req.Seed, nil, states, pool)
	out := &transport.SegmentResponse{
		Fitness:  res.Fitness,
		Makespan: res.Makespan,
		Flowtime: res.Flowtime,
		Evals:    res.Evals,
		Best:     res.Best,
		Fits:     make([]float64, len(states)),
		Pop:      make([]schedule.Schedule, len(states)),
	}
	for k, st := range states {
		out.Pop[k] = st.Schedule()
		st.RefreshFlowtime()
		out.Fits[k] = base.Objective.Of(st)
	}
	w.store(wi, req.Island, states)
	return out, nil
}
