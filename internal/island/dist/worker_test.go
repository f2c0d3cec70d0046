package dist

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"gridcma/internal/cma"
	"gridcma/internal/config"
	"gridcma/internal/schedule"
	"gridcma/internal/transport"
)

// workerSpec is the small instance the malformed-request tests ask for:
// 16 jobs on 4 machines.
const workerSpec = "16x4:c_hihi:s1"

// smallSegmentConfig is a 2×2 mesh with one local-search step, so a
// well-formed segment runs in microseconds.
func smallSegmentConfig() config.Spec {
	w, h, ls := 2, 2, 1
	return config.Spec{Width: &w, Height: &h, LSIterations: &ls}
}

// uniformPop returns n copies of a schedule of the given length with
// every job on machine m.
func uniformPop(n, jobs, m int) []schedule.Schedule {
	pop := make([]schedule.Schedule, n)
	for i := range pop {
		pop[i] = make(schedule.Schedule, jobs)
		for j := range pop[i] {
			pop[i][j] = m
		}
	}
	return pop
}

// TestWorkerRejectsMalformedSegments feeds Handle the segment requests a
// buggy or hostile coordinator can send. Each must come back as an
// application error in Response.Err: a panic here would take the whole
// islandd process down, since the transport server does not recover.
func TestWorkerRejectsMalformedSegments(t *testing.T) {
	huge := 3037000500 // huge*huge overflows int64
	for _, tc := range []struct {
		name string
		seg  transport.SegmentRequest
		want string
	}{
		{"zero iterations", transport.SegmentRequest{Iters: 0}, "iterations"},
		{"negative iterations", transport.SegmentRequest{Iters: -1}, "iterations"},
		{"short schedule", transport.SegmentRequest{Iters: 1, Pop: uniformPop(4, 3, 0)}, "length"},
		{"machine id past the end", transport.SegmentRequest{Iters: 1, Pop: uniformPop(4, 16, 99)}, "invalid machine"},
		{"negative machine id", transport.SegmentRequest{Iters: 1, Pop: uniformPop(4, 16, -1)}, "invalid machine"},
		{"overflowing grid", transport.SegmentRequest{Iters: 1, Config: config.Spec{Width: &huge, Height: &huge}}, "grid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := tc.seg
			seg.Instance = workerSpec
			if seg.Config.Width == nil {
				seg.Config = smallSegmentConfig()
			}
			resp, err := NewWorker().Handle(context.Background(), &transport.Request{ID: 7, Kind: transport.KindSegment, Seg: &seg})
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != 7 || resp.Seg != nil || !strings.Contains(resp.Err, tc.want) {
				t.Fatalf("got id %d, seg %v, err %q; want an error mentioning %q", resp.ID, resp.Seg != nil, resp.Err, tc.want)
			}
		})
	}

	// The same worker still serves a well-formed segment.
	seg := transport.SegmentRequest{Instance: workerSpec, Config: smallSegmentConfig(), Iters: 1, Pop: uniformPop(4, 16, 2)}
	resp, err := NewWorker().Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
	if err != nil || resp.Err != "" || resp.Seg == nil || len(resp.Seg.Pop) != 4 {
		t.Fatalf("well-formed segment: resp %+v, err %v", resp, err)
	}
}

// FuzzWorkerSegment drives Handle with arbitrary configuration JSON,
// iteration counts and population payload lines. Whatever the bytes, the
// worker must answer (with a result or with Response.Err) and never
// panic. Payloads go through transport.ParsePops first, exactly as a TCP
// frame's population line does.
func FuzzWorkerSegment(f *testing.F) {
	f.Add(`{"width":2,"height":2,"ls_iterations":1}`, 0, `[]`)
	f.Add(`{"width":2,"height":2,"ls_iterations":1}`, -1, `[]`)
	f.Add(`{"width":2,"height":2,"ls_iterations":1}`, 1, `[[0,1,2],[0,1,2],[0,1,2],[0,1,2]]`)
	f.Add(`{"width":2,"height":2,"ls_iterations":1}`, 1, `[[99,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]`)
	f.Add(`{"width":2,"height":2,"ls_iterations":1}`, 1, `[[-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]`)
	f.Add(`{"width":3037000500,"height":3037000500}`, 1, `[]`)
	f.Add(`{"width":2,"height":2,"ls_iterations":1}`, 2, `[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3]]`)
	w := NewWorker()
	f.Fuzz(func(t *testing.T, cfgJSON string, iters int, payload string) {
		var spec config.Spec
		if json.Unmarshal([]byte(cfgJSON), &spec) != nil {
			return
		}
		pop, err := transport.ParsePops([]byte(payload))
		if err != nil {
			return
		}
		// Bound the work of segments that pass validation: the target is
		// the checks in front of the engine, not the engine at scale. A
		// grid side over cma.MaxCells stays in, since that grid must be
		// rejected before anything is allocated.
		if iters > 3 {
			iters = 3
		}
		for _, p := range []*int{spec.LSIterations, spec.Recombinations, spec.Mutations, spec.SolutionsToRecombine, spec.Workers} {
			if p != nil && *p > 4 {
				return
			}
		}
		for _, p := range []*int{spec.Width, spec.Height} {
			if p != nil && *p > 4 && *p <= cma.MaxCells {
				return
			}
		}
		if len(spec.Selector) > len("tournament:99") {
			return // a huge tournament is slow, not malformed
		}
		seg := transport.SegmentRequest{Instance: workerSpec, Config: spec, Iters: iters, Pop: pop}
		resp, err := w.Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err == "" && resp.Seg == nil {
			t.Fatal("neither a result nor an error")
		}
	})
}
