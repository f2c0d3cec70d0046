// Package experiments reproduces the evaluation section of the paper: one
// runner per table (2–5) and per tuning figure (2–5), the Table 1
// configuration dump and the §5.1 robustness study. Each runner executes
// the relevant algorithms on regenerated Braun-model instances, reports
// our measurements next to the values published in the paper and checks
// the qualitative *shape* of the published result (who wins, by roughly
// what factor) — absolute values are not comparable because the original
// benchmark files are not redistributable: the instances are regenerated
// from Braun et al.'s published model (internal/etc).
//
// The package is a client of the public gridcma API: the tables build
// their algorithms by registry name (gridcma.New) and run them through
// gridcma.RunBatch, the figures run gridcma.NewCMA variants with an
// observer, and the 12 instance names come from
// gridcma.BenchmarkInstanceNames. Every runner returns an error for bad
// Options before its first run; a cancelled budget context yields what
// was found so far.
package experiments

import (
	"sync"

	"gridcma"
	"gridcma/internal/etc"
)

// Reference holds the values published in the paper for one instance.
// All values are in the paper's arbitrary time units and refer to the
// authors' original instance files, so they anchor shapes, not magnitudes.
type Reference struct {
	Instance string

	// Table 2: best makespans.
	BraunGAMakespan float64
	CMAMakespan     float64

	// Table 3: best makespans of the two other GAs.
	CarreteroXhafaGAMakespan float64
	StruggleGAMakespan       float64

	// Table 4: flowtimes.
	LJFRSJFRFlowtime float64
	CMAFlowtime      float64

	// Table 5: Struggle GA flowtime.
	StruggleGAFlowtime float64
}

// References returns the published numbers keyed by instance name.
func References() map[string]Reference {
	list := []Reference{
		{"u_c_hihi.0", 8050844.5, 7700929.751, 7752349.37, 7752689.08, 2025822398.665, 1037049914.209, 1039048563},
		{"u_c_hilo.0", 156249.2, 155334.805, 155571.80, 156680.58, 35565379.565, 27487998.874, 27620519.9},
		{"u_c_lohi.0", 258756.77, 251360.202, 250550.86, 253926.06, 66300486.264, 34454029.416, 34566883.8},
		{"u_c_lolo.0", 5272.25, 5218.18, 5240.14, 5251.15, 1175661.381, 913976.235, 917647.31},
		{"u_i_hihi.0", 3104762.5, 3186664.713, 3080025.77, 3161104.92, 3665062510.364, 361613627.327, 379768078},
		{"u_i_hilo.0", 75816.13, 75856.623, 76307.90, 75598.48, 41345273.211, 12572126.577, 12674329.1},
		{"u_i_lohi.0", 107500.72, 110620.786, 107294.23, 111792.17, 118925452.958, 12707611.511, 13417596.7},
		{"u_i_lolo.0", 2614.39, 2624.211, 2610.23, 2620.72, 1385846.186, 439073.652, 440728.98},
		{"u_s_hihi.0", 4566206, 4424540.894, 4371324.45, 4433792.28, 2631459406.501, 513769399.117, 524874694},
		// The paper prints 983334.64 for u_s_hilo.0 in Table 3, an obvious
		// typo (an order of magnitude off every neighbour); we keep the
		// printed value, and this note is its record.
		{"u_s_hilo.0", 98519.4, 98283.742, 983334.64, 98560.04, 35745658.309, 16300484.885, 16372763.2},
		{"u_s_lohi.0", 130616.53, 130014.529, 127762.53, 130425.85, 86390552.327, 15179363.456, 15639622.5},
		{"u_s_lolo.0", 3583.44, 3522.099, 3539.43, 3534.31, 1389828.755, 594665.973, 598332.69},
	}
	out := make(map[string]Reference, len(list))
	for _, r := range list {
		out[r.Instance] = r
	}
	return out
}

var (
	instOnce  sync.Once
	instCache map[string]*etc.Instance
)

// Instance returns (and caches) the regenerated benchmark instance with
// the given name. It panics on unknown names: the 12 names are a closed
// set fixed by the benchmark.
func Instance(name string) *etc.Instance {
	instOnce.Do(func() {
		instCache = map[string]*etc.Instance{}
		for _, n := range gridcma.BenchmarkInstanceNames() {
			in, err := gridcma.BenchmarkInstance(n)
			if err != nil {
				panic(err)
			}
			instCache[n] = in
		}
	})
	in, ok := instCache[name]
	if !ok {
		panic("experiments: unknown benchmark instance " + name)
	}
	return in
}
