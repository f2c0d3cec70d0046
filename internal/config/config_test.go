package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridcma/internal/cell"
	"gridcma/internal/cma"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
)

func TestEmptySpecIsTable1(t *testing.T) {
	cfg, err := (Spec{}).Build()
	if err != nil {
		t.Fatal(err)
	}
	def := cma.DefaultConfig()
	if cfg.Width != def.Width || cfg.Pattern != def.Pattern ||
		cfg.Recombinations != def.Recombinations || cfg.Objective != def.Objective {
		t.Error("empty spec drifted from defaults")
	}
}

func TestFullSpecOverridesEverything(t *testing.T) {
	spec, err := Read(strings.NewReader(`{
		"width": 8, "height": 4,
		"pattern": "L5",
		"recomb_order": "NRS", "mut_order": "FRS",
		"recombinations": 10, "mutations": 5, "solutions_to_recombine": 4,
		"selector": "tournament:5",
		"crossover": "uniform",
		"mutator": "swap",
		"local_search": "SLM", "ls_iterations": 9,
		"lambda": 0.5,
		"add_only_if_better": false,
		"seed_heuristic": "minmin",
		"perturb_fraction": 0.1,
		"synchronous": true, "workers": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != 8 || cfg.Height != 4 {
		t.Error("dims not applied")
	}
	if cfg.Pattern != cell.L5 || cfg.RecombOrder != cell.NRS || cfg.MutOrder != cell.FRS {
		t.Error("cellular settings not applied")
	}
	if cfg.Recombinations != 10 || cfg.Mutations != 5 || cfg.SolutionsToRecombine != 4 {
		t.Error("counts not applied")
	}
	if sel, ok := cfg.Selector.(operators.Tournament); !ok || sel.N != 5 {
		t.Error("selector not applied")
	}
	if _, ok := cfg.Crossover.(operators.Uniform); !ok {
		t.Error("crossover not applied")
	}
	if _, ok := cfg.Mutator.(operators.Swap); !ok {
		t.Error("mutator not applied")
	}
	if _, ok := cfg.LocalSearch.(localsearch.SLM); !ok || cfg.LSIterations != 9 {
		t.Error("local search not applied")
	}
	if cfg.Objective.Lambda != 0.5 || cfg.AddOnlyIfBetter || cfg.PerturbFraction != 0.1 {
		t.Error("scalar knobs not applied")
	}
	if cfg.SeedHeuristic == nil || !cfg.Synchronous || cfg.Workers != 3 {
		t.Error("seed/sync knobs not applied")
	}
}

func TestRandomSeedHeuristic(t *testing.T) {
	cfg, err := (Spec{Seed: "random"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SeedHeuristic != nil {
		t.Error("random seed should clear the heuristic")
	}
}

func TestBadValuesRejected(t *testing.T) {
	cases := []Spec{
		{Pattern: "X9"},
		{RecombOrder: "XYZ"},
		{Selector: "tournament:zero"},
		{Selector: "roulette"},
		{Crossover: "pmx"},
		{Mutator: "inversion"},
		{LocalSearch: "deep"},
		{LocalSearch: "LMCTS-sampled-batch"},
		{Seed: "bogus"},
	}
	for i, s := range cases {
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Structurally valid but semantically invalid config.
	w := 0
	if _, err := (Spec{Width: &w}).Build(); err == nil {
		t.Error("zero width accepted")
	}
}

func TestUnknownFieldsRejected(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"widht": 5}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
}

func TestSelectorShorthand(t *testing.T) {
	sel, err := parseSelector("tournament")
	if err != nil {
		t.Fatal(err)
	}
	if sel.(operators.Tournament).N != 3 {
		t.Error("bare tournament should default to N=3")
	}
	for _, n := range []string{"rank", "best", "random"} {
		if _, err := parseSelector(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cma.json")
	if err := os.WriteFile(path, []byte(`{"pattern": "C13", "ls_iterations": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pattern != cell.C13 || cfg.LSIterations != 2 {
		t.Error("file settings not applied")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
