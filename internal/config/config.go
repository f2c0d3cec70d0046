// Package config maps a JSON-friendly description of a cMA configuration
// onto cma.Config, so experiment setups can live in version-controlled
// files instead of command lines. Every field is optional; absent fields
// keep their Table 1 default. Operator references are by name, using the
// same vocabulary as the CLIs ("C9", "FLS", "tournament:3", "one-point",
// "rebalance", "LMCTS", ...).
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gridcma/internal/cell"
	"gridcma/internal/cma"
	"gridcma/internal/heuristics"
	"gridcma/internal/localsearch"
	"gridcma/internal/operators"
	"gridcma/internal/schedule"
)

// Spec is the JSON shape of a cMA configuration. Pointer fields
// distinguish "absent" (keep default) from zero values.
type Spec struct {
	Width  *int `json:"width,omitempty"`
	Height *int `json:"height,omitempty"`

	Pattern     string `json:"pattern,omitempty"`      // L5 L9 C9 C13 Panmictic
	RecombOrder string `json:"recomb_order,omitempty"` // FLS FRS NRS
	MutOrder    string `json:"mut_order,omitempty"`

	Recombinations       *int `json:"recombinations,omitempty"`
	Mutations            *int `json:"mutations,omitempty"`
	SolutionsToRecombine *int `json:"solutions_to_recombine,omitempty"`

	Selector  string `json:"selector,omitempty"`  // tournament:N | rank | best | random
	Crossover string `json:"crossover,omitempty"` // one-point | two-point | uniform
	Mutator   string `json:"mutator,omitempty"`   // rebalance | move | swap

	LocalSearch  string `json:"local_search,omitempty"` // LM SLM LMCTS LMCTS-sampled VND none
	LSIterations *int   `json:"ls_iterations,omitempty"`

	Lambda          *float64 `json:"lambda,omitempty"`
	AddOnlyIfBetter *bool    `json:"add_only_if_better,omitempty"`
	Seed            string   `json:"seed_heuristic,omitempty"` // ljfr-sjfr minmin ... | "random"
	PerturbFraction *float64 `json:"perturb_fraction,omitempty"`

	Synchronous *bool `json:"synchronous,omitempty"`
	Workers     *int  `json:"workers,omitempty"`
}

// Build merges the spec onto the Table 1 defaults and validates the
// result.
func (s Spec) Build() (cma.Config, error) {
	cfg := cma.DefaultConfig()
	if s.Width != nil {
		cfg.Width = *s.Width
	}
	if s.Height != nil {
		cfg.Height = *s.Height
	}
	if s.Pattern != "" {
		p, err := cell.ParsePattern(s.Pattern)
		if err != nil {
			return cfg, err
		}
		cfg.Pattern = p
	}
	if s.RecombOrder != "" {
		o, err := cell.ParseOrder(s.RecombOrder)
		if err != nil {
			return cfg, err
		}
		cfg.RecombOrder = o
	}
	if s.MutOrder != "" {
		o, err := cell.ParseOrder(s.MutOrder)
		if err != nil {
			return cfg, err
		}
		cfg.MutOrder = o
	}
	if s.Recombinations != nil {
		cfg.Recombinations = *s.Recombinations
	}
	if s.Mutations != nil {
		cfg.Mutations = *s.Mutations
	}
	if s.SolutionsToRecombine != nil {
		cfg.SolutionsToRecombine = *s.SolutionsToRecombine
	}
	if s.Selector != "" {
		sel, err := parseSelector(s.Selector)
		if err != nil {
			return cfg, err
		}
		cfg.Selector = sel
	}
	if s.Crossover != "" {
		cx, err := operators.ParseCrossover(s.Crossover)
		if err != nil {
			return cfg, err
		}
		cfg.Crossover = cx
	}
	if s.Mutator != "" {
		mu, err := operators.ParseMutator(s.Mutator)
		if err != nil {
			return cfg, err
		}
		cfg.Mutator = mu
	}
	if s.LocalSearch != "" {
		ls, err := localsearch.ByName(s.LocalSearch)
		if err != nil {
			return cfg, err
		}
		cfg.LocalSearch = ls
	}
	if s.LSIterations != nil {
		cfg.LSIterations = *s.LSIterations
	}
	if s.Lambda != nil {
		cfg.Objective = schedule.Objective{Lambda: *s.Lambda}
	}
	if s.AddOnlyIfBetter != nil {
		cfg.AddOnlyIfBetter = *s.AddOnlyIfBetter
	}
	switch s.Seed {
	case "":
		// keep default
	case "random":
		cfg.SeedHeuristic = nil
	default:
		h, err := heuristics.ByName(s.Seed)
		if err != nil {
			return cfg, err
		}
		cfg.SeedHeuristic = h
	}
	if s.PerturbFraction != nil {
		cfg.PerturbFraction = *s.PerturbFraction
	}
	if s.Synchronous != nil {
		cfg.Synchronous = *s.Synchronous
	}
	if s.Workers != nil {
		cfg.Workers = *s.Workers
	}
	return cfg, cfg.Validate()
}

// parseSelector resolves "tournament:N", "rank", "best" or "random".
func parseSelector(s string) (operators.Selector, error) {
	switch {
	case s == "rank":
		return operators.LinearRank{}, nil
	case s == "best":
		return operators.Best{}, nil
	case s == "random":
		return operators.Random{}, nil
	case strings.HasPrefix(s, "tournament"):
		n := 3
		if rest, ok := strings.CutPrefix(s, "tournament:"); ok {
			v, err := strconv.Atoi(rest)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("config: bad tournament size %q", rest)
			}
			n = v
		} else if s != "tournament" {
			return nil, fmt.Errorf("config: unknown selector %q", s)
		}
		return operators.NewTournament(n), nil
	default:
		return nil, fmt.Errorf("config: unknown selector %q", s)
	}
}

// Read parses a JSON spec. Unknown fields are errors: a typoed knob must
// not silently fall back to its default.
func Read(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("config: %v", err)
	}
	return s, nil
}

// Load reads and builds a configuration file.
func Load(path string) (cma.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return cma.Config{}, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return cma.Config{}, err
	}
	return s.Build()
}
