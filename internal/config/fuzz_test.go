package config

import (
	"bytes"
	"math"
	"testing"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/operators"
	"gridcma/internal/run"
)

// FuzzConfigRead feeds arbitrary bytes to Read and builds whatever it
// accepts. Neither may panic. A spec Build accepts is one cma.New
// accepts, and when it is small enough to run — at most 64 cells, 4
// workers, 50 local search iterations, 64 updates per iteration and a
// tournament of 64 — one iteration runs on a 16×4 generated instance
// and returns a complete schedule of that instance with a finite,
// positive makespan.
func FuzzConfigRead(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"width":8,"height":4,"pattern":"L5","recomb_order":"NRS","mut_order":"FRS",` +
			`"recombinations":10,"mutations":5,"solutions_to_recombine":4,"selector":"tournament:5",` +
			`"crossover":"uniform","mutator":"swap","local_search":"SLM","ls_iterations":9,"lambda":0.5,` +
			`"add_only_if_better":false,"seed_heuristic":"minmin","perturb_fraction":0.1,"synchronous":true,"workers":3}`,
		`{"width":4,"height":4,"workers":2,"local_search":"LMCTS-sampled","seed_heuristic":"random"}`,
		`{"pattern":"C13","selector":"rank","crossover":"two-point","mutator":"move","local_search":"VND"}`,
		`{"width":1,"height":1,"recombinations":0,"mutations":1,"pattern":"Panmictic","local_search":"none"}`,
		`{"selector":"tournament:0"}`,
		`{"width":0}`,
		`{"widht":5}`,
		`{"lambda":2}`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	in, err := etc.GenSpec{Jobs: 16, Machs: 4, Class: etc.Class{Consistency: etc.Inconsistent, JobHet: etc.High, MachineHet: etc.High}, Seed: 1}.Generate()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg, err := spec.Build()
		if err != nil {
			return
		}
		s, err := cma.New(cfg)
		if err != nil {
			t.Fatalf("Build accepted %s, cma.New rejects it: %v", data, err)
		}
		if cfg.Width*cfg.Height > 64 || cfg.Workers > 4 || cfg.LSIterations > 50 ||
			cfg.Recombinations+cfg.Mutations > 64 {
			return
		}
		if tn, ok := cfg.Selector.(operators.Tournament); ok && tn.N > 64 {
			return
		}
		res := s.Run(in, run.Budget{MaxIterations: 1}, 1, nil)
		if len(res.Best) != in.Jobs {
			t.Fatalf("%s: one iteration returned a schedule of %d jobs, want %d", data, len(res.Best), in.Jobs)
		}
		for j, m := range res.Best {
			if m < 0 || int(m) >= in.Machs {
				t.Fatalf("%s: job %d on machine %d of %d", data, j, m, in.Machs)
			}
		}
		if !(res.Makespan > 0) || math.IsInf(res.Makespan, 0) {
			t.Fatalf("%s: makespan %v", data, res.Makespan)
		}
	})
}
