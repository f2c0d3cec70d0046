// Worker: the serving side of the distributed island engine. A worker is
// deliberately stateless between calls — each segment request carries
// everything needed to reproduce the computation (instance spec, config,
// seed, population) — so a worker that crashes loses nothing the
// coordinator cannot re-send, and a request delivered twice computes the
// same bytes twice. The only state a worker keeps is a cache of
// materialised instances and their scratch pools, a pure performance
// matter.
package dist

import (
	"context"
	"fmt"
	"sync"

	"gridcma/internal/etc"
	"gridcma/internal/evalpool"
	"gridcma/internal/island"
	"gridcma/internal/transport"
)

// Worker serves ping and segment calls. Safe for concurrent calls (a
// coordinator may pin several islands to one worker).
type Worker struct {
	pinned *etc.Instance // serve every spec with this instance (in-proc use)

	mu        sync.Mutex
	instances map[string]*workerInstance
}

type workerInstance struct {
	in   *etc.Instance
	pool *evalpool.Pool
}

// NewWorker returns a worker that materialises instances from generator
// specs ("256x16:c_hihi:s3", the etc.ParseGenSpec vocabulary) and caches
// them. This is what cmd/islandd serves: any process that can parse the
// spec reconstructs the byte-identical instance, so no matrix ever
// crosses the wire.
func NewWorker() *Worker {
	return &Worker{instances: make(map[string]*workerInstance)}
}

// NewPinnedWorker returns a worker bound to one in-memory instance,
// served whatever the request's spec says. The in-process transport uses
// it to share the coordinator's instance directly.
func NewPinnedWorker(in *etc.Instance) *Worker {
	return &Worker{pinned: in, instances: make(map[string]*workerInstance)}
}

func (w *Worker) instance(spec string) (*workerInstance, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pinned != nil {
		wi, ok := w.instances[""]
		if !ok {
			wi = &workerInstance{in: w.pinned, pool: evalpool.New(w.pinned)}
			w.instances[""] = wi
		}
		return wi, nil
	}
	if wi, ok := w.instances[spec]; ok {
		return wi, nil
	}
	gs, err := etc.ParseGenSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: instance spec %q: %w", spec, err)
	}
	in, err := gs.Generate()
	if err != nil {
		return nil, fmt.Errorf("dist: generate %q: %w", spec, err)
	}
	wi := &workerInstance{in: in, pool: evalpool.New(in)}
	w.instances[spec] = wi
	return wi, nil
}

// Handle implements transport.Handler.
func (w *Worker) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	switch req.Kind {
	case transport.KindPing:
		return &transport.Response{ID: req.ID}, nil
	case transport.KindSegment:
		if req.Seg == nil {
			return &transport.Response{ID: req.ID, Err: "segment call without a segment body"}, nil
		}
		if req.Seg.Iters < 1 {
			return &transport.Response{ID: req.ID, Err: fmt.Sprintf("dist: %d iterations, need >= 1", req.Seg.Iters)}, nil
		}
		wi, err := w.instance(req.Seg.Instance)
		if err != nil {
			return &transport.Response{ID: req.ID, Err: err.Error()}, nil
		}
		for i, s := range req.Seg.Pop {
			if err := s.Validate(wi.in); err != nil {
				return &transport.Response{ID: req.ID, Err: fmt.Sprintf("dist: individual %d: %v", i, err)}, nil
			}
		}
		base, err := req.Seg.Config.Build()
		if err != nil {
			return &transport.Response{ID: req.ID, Err: fmt.Sprintf("dist: config: %v", err)}, nil
		}
		res, pop, fits, err := island.Segment(wi.in, base, req.Seg.Iters, req.Seg.Seed, req.Seg.Pop, wi.pool)
		if err != nil {
			return &transport.Response{ID: req.ID, Err: err.Error()}, nil
		}
		return &transport.Response{
			ID: req.ID,
			Seg: &transport.SegmentResponse{
				Fitness:  res.Fitness,
				Makespan: res.Makespan,
				Flowtime: res.Flowtime,
				Evals:    res.Evals,
				Best:     res.Best,
				Fits:     fits,
				Pop:      pop,
			},
		}, nil
	default:
		return &transport.Response{ID: req.ID, Err: fmt.Sprintf("unknown call kind %q", req.Kind)}, nil
	}
}
