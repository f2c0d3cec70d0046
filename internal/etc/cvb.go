package etc

import (
	"math"

	"gridcma/internal/rng"
)

// The CVB (coefficient-of-variation-based) generation method of Ali,
// Siegel et al. is the second standard way of building ETC matrices,
// complementing the range-based method the benchmark uses. Heterogeneity
// is expressed as coefficients of variation rather than range bounds:
// a per-task mean is drawn from a gamma distribution, then each row is
// filled with gamma draws around that mean. The paper's future work calls
// for "larger size grid instances"; GenSpec (gen.go), CVB over free
// dimensions, is how the library generates them. This file holds the two
// samplers it draws with.

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
