package etc

import (
	"fmt"
	"math"

	"gridcma/internal/rng"
)

// The CVB (coefficient-of-variation-based) generation method of Ali,
// Siegel et al. is the second standard way of building ETC matrices,
// complementing the range-based method the benchmark uses. Heterogeneity
// is expressed as coefficients of variation rather than range bounds:
// a per-task mean is drawn from a gamma distribution with mean TaskMean
// and CV Vtask, then each row is filled with gamma draws around that mean
// with CV Vmach. The paper's future work calls for "larger size grid
// instances"; CVB plus free dimensions is how the library generates them.

// CVBOptions parameterises CVB generation.
type CVBOptions struct {
	Jobs  int // default 512
	Machs int // default 16
	// TaskMean is the mean task execution time (must be > 0).
	TaskMean float64
	// Vtask and Vmach are the task and machine coefficients of variation
	// (must be > 0; the literature uses ~0.1 for low and ~0.6+ for high
	// heterogeneity).
	Vtask, Vmach float64
	Consistency  Consistency
	Seed         uint64
}

// Validate reports the first option error.
func (o CVBOptions) Validate() error {
	switch {
	case o.Jobs < 0 || o.Machs < 0:
		return fmt.Errorf("etc: negative CVB dimensions")
	case o.TaskMean <= 0:
		return fmt.Errorf("etc: CVB TaskMean %v must be > 0", o.TaskMean)
	case o.Vtask <= 0 || o.Vmach <= 0:
		return fmt.Errorf("etc: CVB coefficients of variation must be > 0")
	}
	return nil
}

// GenerateCVB builds an instance with the CVB method.
func GenerateCVB(name string, o CVBOptions) (*Instance, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.Jobs == 0 {
		o.Jobs = BenchmarkJobs
	}
	if o.Machs == 0 {
		o.Machs = BenchmarkMachs
	}
	in := New(name, o.Jobs, o.Machs)
	// Gamma shape/scale from mean μ and CV v: shape = 1/v², scale = μ·v².
	alphaTask := 1 / (o.Vtask * o.Vtask)
	alphaMach := 1 / (o.Vmach * o.Vmach)
	var s rowSorter // a fresh instance is never regenerated in place, so it keeps no scratch
	fillRows(rng.New(o.Seed), in.ETC, o.Machs, o.TaskMean, alphaTask, alphaMach, o.Consistency, &s)
	in.Finalize()
	return in, nil
}

// gamma draws from Gamma(shape, scale) with the Marsaglia–Tsang method
// (with the standard boost for shape < 1).
func gamma(r *rng.Source, shape, scale float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normal(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// normal draws a standard normal deviate (polar Box–Muller).
func normal(r *rng.Source) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
