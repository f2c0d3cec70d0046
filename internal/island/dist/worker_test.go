package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
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
		{"short population", transport.SegmentRequest{Iters: 1, Pop: uniformPop(3, 16, 0)}, "population of 3 for a 4-cell mesh"},
		{"long population", transport.SegmentRequest{Iters: 1, Pop: uniformPop(5, 16, 0)}, "population of 5 for a 4-cell mesh"},
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

// fuzzSpecs are the instances FuzzWorkerSegment's inputs pick from: one
// shape, so every payload that is valid on one is valid on all, and one
// more than a worker caches, so the long-lived worker evicts.
var fuzzSpecs = [maxInstances + 1]string{workerSpec, "16x4:c_hihi:s2", "16x4:i_lolo:s1", "16x4:s_hilo:s3", "16x4:i_hihi:s7"}

// FuzzWorkerSegment drives Handle with arbitrary configuration JSON,
// iteration counts, population payload lines, island indices and
// instances. Whatever the bytes, the worker must answer (with a result
// or with Response.Err) and never panic. Payloads go through
// transport.ParsePops first, exactly as a TCP frame's population line
// does.
//
// Each input also runs differentially: through one long-lived worker,
// whose stash carries across inputs (other islands, mesh sizes and
// instances included), and through a fresh worker, which builds every
// cell from the payload. Their replies must be identical: the stash is a
// cache, and a reply is a pure function of its request. An input with
// its release flag set then ends the run on its instance, as a
// coordinator does: the long-lived worker must answer the release with
// an empty reply and keep no mesh and no pool for that instance.
func FuzzWorkerSegment(f *testing.F) {
	cfg := `{"width":2,"height":2,"ls_iterations":1}`
	f.Add(cfg, 0, `[]`, 0, uint8(0), false)
	f.Add(cfg, -1, `[]`, 0, uint8(0), false)
	f.Add(cfg, 1, `[[0,1,2],[0,1,2],[0,1,2],[0,1,2]]`, 0, uint8(0), false)
	f.Add(cfg, 1, `[[99,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]`, 0, uint8(0), false)
	f.Add(cfg, 1, `[[-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]`, 0, uint8(0), false)
	f.Add(`{"width":3037000500,"height":3037000500}`, 1, `[]`, 0, uint8(0), false)
	f.Add(cfg, 2, `[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3]]`, 0, uint8(0), false)
	// Full meshes on island 1: a fresh mesh, then segments that find the
	// stash the one before left and re-target it, a segment followed by a
	// release, the island after it, a mesh of another size, another
	// instance, and a parallel engine on island 2.
	a := `[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3]`
	b := `[3,3,2,2,1,1,0,0,3,3,2,2,1,1,0,0]`
	c := `[1,1,1,1,2,2,2,2,3,3,3,3,0,0,0,0]`
	f.Add(cfg, 2, `[]`, 1, uint8(0), false)
	f.Add(cfg, 2, `[`+a+`,`+b+`,`+c+`,`+a+`]`, 1, uint8(0), false)
	f.Add(cfg, 1, `[`+a+`,`+b+`,`+c+`,`+a+`]`, 1, uint8(0), false)
	f.Add(cfg, 1, `[`+c+`,`+b+`,`+c+`,`+b+`]`, 1, uint8(0), false)
	f.Add(cfg, 2, `[`+b+`,`+b+`,`+c+`,`+a+`]`, 1, uint8(0), true)
	f.Add(cfg, 1, `[`+b+`,`+b+`,`+c+`,`+a+`]`, 1, uint8(0), false)
	f.Add(`{"width":3,"height":1,"ls_iterations":2}`, 1, `[`+a+`,`+b+`,`+c+`]`, 1, uint8(0), false)
	f.Add(cfg, 1, `[`+a+`,`+b+`,`+c+`,`+a+`]`, 1, uint8(3), false)
	f.Add(`{"width":2,"height":2,"workers":2}`, 2, `[`+a+`,`+b+`,`+c+`,`+a+`]`, 2, uint8(1), false)
	long := NewWorker()
	f.Fuzz(func(t *testing.T, cfgJSON string, iters int, payload string, island int, inst uint8, release bool) {
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
		seg := transport.SegmentRequest{
			Instance: fuzzSpecs[int(inst)%len(fuzzSpecs)],
			Config:   spec,
			Island:   island,
			Iters:    iters,
			Pop:      pop,
		}
		got, err := long.Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
		if err != nil {
			t.Fatal(err)
		}
		if got.Err == "" && got.Seg == nil {
			t.Fatal("neither a result nor an error")
		}
		want, err := NewWorker().Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReply(got, want); err != nil {
			t.Fatalf("long-lived worker and fresh worker differ: %v", err)
		}
		if !release {
			return
		}
		resp, err := long.Handle(context.Background(), &transport.Request{ID: 3, Kind: transport.KindRelease, Instance: seg.Instance})
		if err != nil || resp.ID != 3 || resp.Err != "" || resp.Seg != nil || resp.Repl != nil {
			t.Fatalf("release: reply %+v, err %v; want an empty reply", resp, err)
		}
		long.mu.Lock()
		defer long.mu.Unlock()
		for _, wi := range long.instances {
			if wi.spec == seg.Instance && (wi.pool != nil || len(wi.stash) != 0) {
				t.Fatalf("%s keeps %d meshes and a pool %v after its release", wi.spec, len(wi.stash), wi.pool != nil)
			}
		}
	})
}

// sameReply reports the first difference between two segment replies,
// comparing every float bit for bit.
func sameReply(a, b *transport.Response) error {
	if a.Err != b.Err {
		return fmt.Errorf("errors %q vs %q", a.Err, b.Err)
	}
	if (a.Seg == nil) != (b.Seg == nil) {
		return fmt.Errorf("one reply has no segment body")
	}
	if a.Seg == nil {
		return nil
	}
	x, y := a.Seg, b.Seg
	same := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	if !same(x.Fitness, y.Fitness) || !same(x.Makespan, y.Makespan) || !same(x.Flowtime, y.Flowtime) || x.Evals != y.Evals {
		return fmt.Errorf("results (%v %v %v %d) vs (%v %v %v %d)", x.Fitness, x.Makespan, x.Flowtime, x.Evals, y.Fitness, y.Makespan, y.Flowtime, y.Evals)
	}
	if !x.Best.Equal(y.Best) {
		return fmt.Errorf("best schedules differ")
	}
	if len(x.Pop) != len(y.Pop) || len(x.Fits) != len(y.Fits) {
		return fmt.Errorf("populations of %d/%d vs %d/%d", len(x.Pop), len(x.Fits), len(y.Pop), len(y.Fits))
	}
	for k := range x.Pop {
		if !x.Pop[k].Equal(y.Pop[k]) || !same(x.Fits[k], y.Fits[k]) {
			return fmt.Errorf("individual %d differs", k)
		}
	}
	return nil
}

// held returns how many stashed meshes and scratch pools w holds over
// every cached instance.
func held(w *Worker) (meshes, pools int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, wi := range w.instances {
		meshes += len(wi.stash)
		if wi.pool != nil {
			pools++
		}
	}
	return meshes, pools
}

// stashed returns how many meshes w's stash holds per island index, over
// every cached instance, and fails the test on a mesh that does not
// match the mesh size cells.
func stashed(t *testing.T, w *Worker, cells int) map[int]int {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	n := make(map[int]int)
	for _, wi := range w.instances {
		for island, states := range wi.stash {
			if len(states) != cells {
				t.Fatalf("island %d: stashed mesh of %d States, want %d", island, len(states), cells)
			}
			n[island]++
		}
	}
	return n
}

// TestWorkerInstanceCacheBounded: a worker serving more specs than it
// caches keeps the most recently used ones, and an evicted instance's
// stash goes with it.
func TestWorkerInstanceCacheBounded(t *testing.T) {
	w := NewWorker()
	segment := func(spec string, island int) {
		t.Helper()
		seg := transport.SegmentRequest{Instance: spec, Config: smallSegmentConfig(), Island: island, Iters: 1}
		resp, err := w.Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
		if err != nil || resp.Err != "" {
			t.Fatalf("%s: %v %q", spec, err, resp.Err)
		}
	}
	for k, spec := range fuzzSpecs {
		segment(spec, k)
		if k == 1 {
			segment(fuzzSpecs[0], 9) // keeps the first spec recently used
		}
	}
	var held []string
	for _, wi := range w.instances {
		held = append(held, wi.spec)
	}
	want := []string{fuzzSpecs[0], fuzzSpecs[2], fuzzSpecs[3], fuzzSpecs[4]}
	if strings.Join(held, " ") != strings.Join(want, " ") {
		t.Fatalf("cached %v, want %v", held, want)
	}
	got := stashed(t, w, 4)
	if len(got) != 5 || got[1] != 0 {
		t.Fatalf("stash %v: want islands 0, 2, 3, 4 and 9; island 1 left with its instance", got)
	}
}

// TestWorkerConcurrentSegments calls one worker from several goroutines
// at once, as a coordinator serving several islands from one worker, or
// two coordinators sharing it, may: each island's calls chain its own
// segments, two goroutines race on island 0's stash, and each goroutine
// releases the instance after its third segment while the others'
// segments run on the pool it drops. Every reply must equal a fresh
// worker's answer to the same request.
func TestWorkerConcurrentSegments(t *testing.T) {
	w := NewWorker()
	islands := []int{0, 0, 1, 2}
	var wg sync.WaitGroup
	for g, island := range islands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pop []schedule.Schedule
			for round := 0; round < 4; round++ {
				seg := transport.SegmentRequest{
					Instance: workerSpec, Config: smallSegmentConfig(), Island: island,
					Round: round, Iters: 2, Seed: uint64(10*g + round), Pop: pop,
				}
				got, err := w.Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := NewWorker().Handle(context.Background(), &transport.Request{Kind: transport.KindSegment, Seg: &seg})
				if err := sameReply(got, want); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				pop = got.Seg.Pop
				pop[0], pop[1] = pop[1], pop[0] // a migration's worth of change
				if round == 2 {
					w.Handle(context.Background(), &transport.Request{Kind: transport.KindRelease, Instance: workerSpec})
				}
			}
		}()
	}
	wg.Wait()
}
