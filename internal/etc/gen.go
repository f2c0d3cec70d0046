package etc

import (
	"fmt"
	"strconv"
	"strings"

	"gridcma/internal/rng"
)

// Frontier-scale instance generation. The Braun suite is fixed at 512×16
// and the range-based Generate keeps that family's statistics; GenSpec is
// the free-dimension entry point the ROADMAP's instance-frontier item
// calls for: a deterministic streaming generator for arbitrary
// (jobs, machines, heterogeneity) points, CVB-style (gamma draws around a
// gamma-drawn per-task mean). Draws come row by row (one job's entries in
// machine order) into a small row-major staging block; a consistent or
// semi-consistent row is sorted there (rowsort.go: a sorting network for
// rows of at most 16 sorted entries, a counting sort above), and each
// full block is written out into the machine-major matrix one column run
// at a time (fillColumns). The filled instance keeps the sort scratch and
// the block, so a same-shape GenerateInto allocates nothing in any class.
// The same GenSpec always produces the same matrix on one architecture:
// the xoshiro stream is a pure function of Seed, every draw is consumed
// in a fixed order, and a sorted row has only one ascending order. Across
// architectures see Generate.

// CVB parameters used by GenSpec generation: one fixed task mean, and the
// coefficient-of-variation pair the literature uses for low/high
// heterogeneity.
const (
	GenTaskMean = 1000.0
	GenCVLow    = 0.1
	GenCVHigh   = 0.6
)

// GenSpec describes a synthetic instance: dimensions, Braun-style class
// (consistency × job het × machine het) and RNG seed. The canonical
// string form is
//
//	<jobs>x<machs>[:<class>][:s<seed>]
//
// e.g. "100000x1000:c_hihi:s7" — class defaults to i_hihi, seed to 1.
type GenSpec struct {
	Jobs  int
	Machs int
	Class Class
	Seed  uint64
}

// ParseGenSpec parses the canonical spec string form.
func ParseGenSpec(s string) (GenSpec, error) {
	g := GenSpec{Class: Class{Consistency: Inconsistent, JobHet: High, MachineHet: High}, Seed: 1}
	parts := strings.Split(s, ":")
	dims := strings.Split(parts[0], "x")
	if len(dims) != 2 {
		return g, fmt.Errorf("etc: gen spec %q: want <jobs>x<machs>[:<class>][:s<seed>]", s)
	}
	var err error
	if g.Jobs, err = strconv.Atoi(dims[0]); err != nil {
		return g, fmt.Errorf("etc: gen spec %q: bad jobs %q", s, dims[0])
	}
	if g.Machs, err = strconv.Atoi(dims[1]); err != nil {
		return g, fmt.Errorf("etc: gen spec %q: bad machines %q", s, dims[1])
	}
	for _, p := range parts[1:] {
		switch {
		case len(p) > 1 && p[0] == 's' && p[1] >= '0' && p[1] <= '9':
			seed, err := strconv.ParseUint(p[1:], 10, 64)
			if err != nil {
				return g, fmt.Errorf("etc: gen spec %q: bad seed %q", s, p)
			}
			g.Seed = seed
		default:
			class, err := parseClassCode(p)
			if err != nil {
				return g, fmt.Errorf("etc: gen spec %q: %v", s, err)
			}
			g.Class = class
		}
	}
	return g, g.Validate()
}

// parseClassCode parses a bare class code such as "c_hihi" or "i_lolo".
func parseClassCode(code string) (Class, error) {
	var c Class
	cons, het, ok := strings.Cut(code, "_")
	if !ok || len(het) != 4 {
		return c, fmt.Errorf("unknown class code %q", code)
	}
	switch cons {
	case "c":
		c.Consistency = Consistent
	case "i":
		c.Consistency = Inconsistent
	case "s":
		c.Consistency = SemiConsistent
	default:
		return c, fmt.Errorf("unknown consistency %q in class code %q", cons, code)
	}
	switch het[:2] {
	case "hi":
		c.JobHet = High
	case "lo":
		c.JobHet = Low
	default:
		return c, fmt.Errorf("unknown job heterogeneity in class code %q", code)
	}
	switch het[2:] {
	case "hi":
		c.MachineHet = High
	case "lo":
		c.MachineHet = Low
	default:
		return c, fmt.Errorf("unknown machine heterogeneity in class code %q", code)
	}
	return c, nil
}

// code returns the bare class code ("c_hihi") used in spec strings and
// generated instance names.
func (c Class) code() string {
	return fmt.Sprintf("%s_%s%s", c.Consistency, c.JobHet, c.MachineHet)
}

// String returns the canonical spec form, parseable by ParseGenSpec.
func (g GenSpec) String() string {
	return fmt.Sprintf("%dx%d:%s:s%d", g.Jobs, g.Machs, g.Class.code(), g.Seed)
}

// InstanceName is the name Generate stamps on the instance, unique per
// spec: "gen_c_hihi_100000x1000_s7".
func (g GenSpec) InstanceName() string {
	return fmt.Sprintf("gen_%s_%dx%d_s%d", g.Class.code(), g.Jobs, g.Machs, g.Seed)
}

// Validate reports the first spec error: dimensions that are not
// positive or whose matrix would exceed the entry cap.
func (g GenSpec) Validate() error { return CheckDims(g.Jobs, g.Machs) }

// cv maps a heterogeneity level to its coefficient of variation.
func cv(h Heterogeneity) float64 {
	if h == High {
		return GenCVHigh
	}
	return GenCVLow
}

// Generate builds the instance the spec describes. The same spec gives
// a byte-identical matrix in every process on one architecture, and on
// amd64, where the golden digests run, the bytes are pinned
// (TestGenSpecGoldenDigests). Other architectures are not promised the
// same bytes: arm64 compiles a multiply and an add into one fused,
// singly rounded instruction in the gamma and normal draws and in
// math.Log's pure-Go kernel.
func (g GenSpec) Generate() (*Instance, error) {
	return g.GenerateInto(nil)
}

// GenerateInto is Generate reusing dst's backing arrays when dst has the
// same shape (the frontier bench ladder regenerates instances in place;
// a same-shape regeneration performs zero allocations). A nil or shape-mismatched dst allocates fresh.
func (g GenSpec) GenerateInto(dst *Instance) (*Instance, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if dst == nil || dst.Jobs != g.Jobs || dst.Machs != g.Machs {
		dst = New(g.InstanceName(), g.Jobs, g.Machs)
	} else {
		// The spec that last filled this instance: a same-spec
		// regeneration skips the name restamp (the only string-building
		// in the reuse path), keeping it allocation-free.
		if dst.gen == nil || dst.gen.spec != g {
			dst.Name = g.InstanceName()
		}
		for j := range dst.Ready {
			dst.Ready[j] = 0
		}
	}
	if dst.gen == nil {
		dst.gen = new(genState)
	}
	gs := dst.gen
	gs.spec = g
	var r rng.Source
	r.Reseed(g.Seed)
	vt, vm := cv(g.Class.JobHet), cv(g.Class.MachineHet)
	// Gamma shape/scale from mean μ and CV v: shape = 1/v², scale = μ·v².
	alphaTask := 1 / (vt * vt)
	alphaMach := 1 / (vm * vm)
	fillColumns(dst, &gs.stage, &gs.sorter, g.Class.Consistency, cvbRow(&r, alphaTask, alphaMach))
	return dst, nil
}

// genState is what an instance a GenSpec filled keeps for the next
// same-shape GenerateInto: the spec, the consistency sort's scratch and
// the staging block, so that the regeneration allocates nothing.
type genState struct {
	spec   GenSpec
	sorter rowSorter
	stage  []float64
}

// cvbRow returns the CVB draw of one row: a task mean q drawn around
// GenTaskMean, then one draw around q per machine, each clamped to at
// least 1.
func cvbRow(r *rng.Source, alphaTask, alphaMach float64) func(row []float64) {
	return func(row []float64) {
		q := gamma(r, alphaTask, GenTaskMean/alphaTask)
		if q < 1 {
			q = 1 // keep execution times sensible and strictly positive
		}
		for j := range row {
			v := gamma(r, alphaMach, q/alphaMach)
			if v < 1 {
				v = 1
			}
			row[j] = v
		}
	}
}

// stageRows is the staging block's height: a full block writes each
// column a run of 8 entries, one 64-byte cache line. Blocks up to 64
// rows high wrote no faster, and the block is kept on the instance, so
// its height is heap the instance holds for good.
const stageRows = 8

// fillColumns fills in's matrix with the rows draw produces, in job
// order, and finalizes the instance. Each row is drawn and consistified
// (with the sort scratch s) in the row-major staging block *stage; once
// the block is full (or the jobs run out) every column's run is written
// in one go. That write reads the block, which stays in cache, across
// its rows and writes each column contiguously, where a row-at-a-time
// fill would touch one line per machine for every job. Finalize's sums
// fold on the way, in Finalize's own loop: each staged row adds to its
// job's sum in machine order and to every column's sum, so each column
// sums in job order. The derived workloads and speeds are therefore
// bit-identical to a separate pass, and that pass over the matrix goes
// away. Besides the destination only the block and the sort scratch are
// touched: the per-row work allocates nothing, so matrix size is bounded
// by the destination alone.
func fillColumns(in *Instance, stage *[]float64, s *rowSorter, cons Consistency, draw func(row []float64)) {
	jobs, machs := in.Jobs, in.Machs
	workload, colSum := in.resetDerived()
	n := min(jobs, stageRows) * machs
	if cap(*stage) < n {
		*stage = make([]float64, n)
	}
	block := (*stage)[:n]
	for i0 := 0; i0 < jobs; i0 += stageRows {
		rows := min(stageRows, jobs-i0)
		for k := 0; k < rows; k++ {
			row := block[k*machs : (k+1)*machs]
			draw(row)
			consistify(row, cons, s)
			sum := 0.0
			for m, v := range row {
				sum += v
				colSum[m] += v
			}
			workload[i0+k] = sum
		}
		writeRuns(in.ETC, block[:rows*machs], rows, jobs, i0)
	}
	in.finishDerived()
}

// writeRuns writes the staged block (row-major: rows jobs, each a row of
// the matrix) into the machine-major dst as the jobs from i0 on, one
// contiguous run per column.
func writeRuns(dst, block []float64, rows, jobs, i0 int) {
	machs := len(block) / rows
	for m := 0; m < machs; m++ {
		run := dst[m*jobs+i0:][:rows]
		for k := range run {
			run[k] = block[k*machs+m]
		}
	}
}

// BaseStream returns a deterministic stream of CVB task base times — the
// per-task mean draw of the generator's two-level gamma model (mean
// GenTaskMean, CV of the given heterogeneity level, clamped ≥ 1). The
// benchmark's gridd-ingest workload draws submission bases from it, so
// a streamed workload carries the same task heterogeneity as a
// generated frontier matrix instead of small uniform integers.
func BaseStream(seed uint64, het Heterogeneity) func() float64 {
	v := cv(het)
	alpha := 1 / (v * v)
	r := rng.New(seed)
	return func() float64 {
		q := gamma(r, alpha, GenTaskMean/alpha)
		if q < 1 {
			q = 1
		}
		return q
	}
}
