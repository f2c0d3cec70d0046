package etc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gridcma/internal/rng"
)

// Frontier-scale instance generation. The Braun suite is fixed at 512×16
// and the range-based Generate keeps that family's statistics; GenSpec is
// the free-dimension entry point the ROADMAP's instance-frontier item
// calls for: a deterministic streaming generator for arbitrary
// (jobs, machines, heterogeneity) points, CVB-style (gamma draws around a
// gamma-drawn per-task mean), filling the single flat ETC matrix row by
// row with no intermediate per-row allocations. A consistent or
// semi-consistent row goes through the package's counting-sort kernel
// (rowsort.go), whose scratch the filled instance keeps, so a same-shape
// GenerateInto allocates nothing in any class. The same GenSpec always
// produces a byte-identical matrix: the xoshiro stream is a pure function
// of Seed, every draw is consumed in a fixed order, and a sorted row has
// only one ascending order.

// CVB parameters used by GenSpec generation: one fixed task mean, and the
// coefficient-of-variation pair the literature uses for low/high
// heterogeneity.
const (
	GenTaskMean = 1000.0
	GenCVLow    = 0.1
	GenCVHigh   = 0.6
)

// GenSpec describes a synthetic instance: dimensions, Braun-style class
// (consistency × job het × machine het), RNG seed, and the optional
// float32 matrix backing for frontier sizes. The canonical string form is
//
//	<jobs>x<machs>[:<class>][:s<seed>][:f32]
//
// e.g. "100000x1000:c_hihi:s7:f32" — class defaults to i_hihi, seed to 1.
type GenSpec struct {
	Jobs  int
	Machs int
	Class Class
	Seed  uint64
	// Float32 selects the narrow ETC backing (Instance.ETC32): half the
	// matrix bytes, entries quantized to float32 at generation time.
	Float32 bool
}

// ParseGenSpec parses the canonical spec string form.
func ParseGenSpec(s string) (GenSpec, error) {
	g := GenSpec{Class: Class{Consistency: Inconsistent, JobHet: High, MachineHet: High}, Seed: 1}
	parts := strings.Split(s, ":")
	dims := strings.Split(parts[0], "x")
	if len(dims) != 2 {
		return g, fmt.Errorf("etc: gen spec %q: want <jobs>x<machs>[:<class>][:s<seed>][:f32]", s)
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
		case p == "f32":
			g.Float32 = true
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
	s := fmt.Sprintf("%dx%d:%s:s%d", g.Jobs, g.Machs, g.Class.code(), g.Seed)
	if g.Float32 {
		s += ":f32"
	}
	return s
}

// InstanceName is the name Generate stamps on the instance, unique per
// spec: "gen_c_hihi_100000x1000_s7" (plus "_f32" under the narrow
// backing).
func (g GenSpec) InstanceName() string {
	n := fmt.Sprintf("gen_%s_%dx%d_s%d", g.Class.code(), g.Jobs, g.Machs, g.Seed)
	if g.Float32 {
		n += "_f32"
	}
	return n
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

// Generate builds the instance the spec describes. Same spec ⇒
// byte-identical matrix, in any process, on any platform.
func (g GenSpec) Generate() (*Instance, error) {
	return g.GenerateInto(nil)
}

// GenerateInto is Generate reusing dst's backing arrays when dst has the
// same shape and matrix backing (the frontier bench ladder regenerates
// instances in place; a same-shape regeneration performs zero
// allocations). A nil or shape-mismatched dst allocates fresh.
func (g GenSpec) GenerateInto(dst *Instance) (*Instance, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if dst == nil || dst.Jobs != g.Jobs || dst.Machs != g.Machs || g.Float32 != (dst.ETC32 != nil) {
		if g.Float32 {
			dst = New32(g.InstanceName(), g.Jobs, g.Machs)
		} else {
			dst = New(g.InstanceName(), g.Jobs, g.Machs)
		}
	} else {
		// genSpec records which spec last filled this instance: a
		// same-spec regeneration skips the name restamp (the only
		// string-building in the reuse path), keeping it allocation-free.
		if dst.genSpec != g {
			dst.Name = g.InstanceName()
		}
		for j := range dst.Ready {
			dst.Ready[j] = 0
		}
	}
	dst.genSpec = g
	var r rng.Source
	r.Reseed(g.Seed)
	vt, vm := cv(g.Class.JobHet), cv(g.Class.MachineHet)
	// Gamma shape/scale from mean μ and CV v: shape = 1/v², scale = μ·v².
	alphaTask := 1 / (vt * vt)
	alphaMach := 1 / (vm * vm)
	if g.Float32 {
		fillRows(&r, dst.ETC32, g.Machs, GenTaskMean, alphaTask, alphaMach, g.Class.Consistency, &dst.sorter)
	} else {
		fillRows(&r, dst.ETC, g.Machs, GenTaskMean, alphaTask, alphaMach, g.Class.Consistency, &dst.sorter)
	}
	dst.Finalize()
	return dst, nil
}

// fillRows streams the CVB draws into the flat matrix row by row: per row
// a task mean q drawn around taskMean, then one draw around q per
// machine, each clamped to at least 1. GenSpec and GenerateCVB share it;
// only the task mean differs. Besides the destination it touches only
// the counting-sort scratch s: per-row work allocates nothing, so matrix
// size is bounded by the destination alone. Draws happen in float64 (the stream is backing-independent) and
// are narrowed on store; the consistency sort (consistify) runs on the
// stored element type, which for float32 gives the same order as sorting
// before narrowing because the conversion is monotone.
func fillRows[E interface{ ~float32 | ~float64 }](r *rng.Source, dst []E, machs int, taskMean, alphaTask, alphaMach float64, cons Consistency, s *rowSorter) {
	rows := len(dst) / machs
	for i := 0; i < rows; i++ {
		q := gamma(r, alphaTask, taskMean/alphaTask)
		if q < 1 {
			q = 1 // keep execution times sensible and strictly positive
		}
		row := dst[i*machs : (i+1)*machs]
		for j := range row {
			v := gamma(r, alphaMach, q/alphaMach)
			if v < 1 {
				v = 1
			}
			row[j] = E(v)
		}
		consistify(row, cons, s)
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

// MatrixDigest returns the SHA-256 of the ETC matrix's raw entries
// (little-endian IEEE-754 bits, row-major) — the byte-identity witness of
// the generator's determinism contract.
func (in *Instance) MatrixDigest() [32]byte {
	h := sha256.New()
	var buf [4096]byte
	n := 0
	if in.ETC != nil {
		for _, v := range in.ETC {
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
			if n += 8; n == len(buf) {
				h.Write(buf[:])
				n = 0
			}
		}
	} else {
		for _, v := range in.ETC32 {
			binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(v))
			if n += 4; n == len(buf) {
				h.Write(buf[:])
				n = 0
			}
		}
	}
	h.Write(buf[:n])
	var out [32]byte
	h.Sum(out[:0])
	return out
}
