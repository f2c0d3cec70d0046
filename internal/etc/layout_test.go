package etc

import (
	"fmt"
	"math"
	"testing"

	"gridcma/internal/rng"
)

// The row-major references: the generators' fill loops and Finalize as
// they read when the matrix was stored one job's row at a time. Each
// returns the logical matrix row-major (entry (i, j) at i*machs+j) with
// the workloads and speeds Finalize derives from it. The machine-major
// instance must reproduce all three bit for bit.

type rowMajor struct {
	jobs, machs     int
	etc             []float64
	workload, speed []float64
}

// refFinalize is Finalize over a row-major matrix: each job's row summed
// in machine order, each machine's column in job order.
func (rm *rowMajor) refFinalize() {
	rm.workload = make([]float64, rm.jobs)
	colSum := make([]float64, rm.machs)
	for i := 0; i < rm.jobs; i++ {
		s := 0.0
		for j, v := range rm.etc[i*rm.machs : (i+1)*rm.machs] {
			s += v
			colSum[j] += v
		}
		rm.workload[i] = s / float64(rm.machs)
	}
	rm.speed = make([]float64, rm.machs)
	for j, cs := range colSum {
		if mean := cs / float64(rm.jobs); mean > 0 {
			rm.speed[j] = 1 / mean
		}
	}
}

// refFillRows is GenSpec's CVB fill, row by row.
func refFillRows(r *rng.Source, jobs, machs int, alphaTask, alphaMach float64, cons Consistency) *rowMajor {
	rm := &rowMajor{jobs: jobs, machs: machs, etc: make([]float64, jobs*machs)}
	var s rowSorter
	for i := 0; i < jobs; i++ {
		q := gamma(r, alphaTask, GenTaskMean/alphaTask)
		if q < 1 {
			q = 1
		}
		row := rm.etc[i*machs : (i+1)*machs]
		for j := range row {
			v := gamma(r, alphaMach, q/alphaMach)
			if v < 1 {
				v = 1
			}
			row[j] = v
		}
		consistify(row, cons, &s)
	}
	rm.refFinalize()
	return rm
}

func refGenSpec(g GenSpec) *rowMajor {
	var r rng.Source
	r.Reseed(g.Seed)
	vt, vm := cv(g.Class.JobHet), cv(g.Class.MachineHet)
	return refFillRows(&r, g.Jobs, g.Machs, 1/(vt*vt), 1/(vm*vm), g.Class.Consistency)
}

// refBraun is the range-based Generate, row by row.
func refBraun(class Class, opt GenerateOptions) *rowMajor {
	r := rng.New(opt.Seed)
	rTask := float64(TaskHeterogeneityLow)
	if class.JobHet == High {
		rTask = TaskHeterogeneityHigh
	}
	rMach := float64(MachineHeterogeneityLow)
	if class.MachineHet == High {
		rMach = MachineHeterogeneityHigh
	}
	rm := &rowMajor{jobs: opt.Jobs, machs: opt.Machs, etc: make([]float64, opt.Jobs*opt.Machs)}
	var s rowSorter
	for i := 0; i < opt.Jobs; i++ {
		b := r.Uniform(1, rTask)
		row := rm.etc[i*opt.Machs : (i+1)*opt.Machs]
		for j := range row {
			row[j] = b * r.Uniform(1, rMach)
		}
		consistify(row, class.Consistency, &s)
	}
	rm.refFinalize()
	return rm
}

// sameAsRef fails unless in's At, Workload and Speed equal the
// reference's bit for bit, then checks that a re-Finalize (the tiled
// column walk Read and the daemon use) keeps the derived fields.
func sameAsRef(t *testing.T, name string, in *Instance, ref *rowMajor) {
	t.Helper()
	check := func(stage string) {
		t.Helper()
		if in.Jobs != ref.jobs || in.Machs != ref.machs {
			t.Fatalf("%s: shape %d×%d, want %d×%d", name, in.Jobs, in.Machs, ref.jobs, ref.machs)
		}
		for i := 0; i < ref.jobs; i++ {
			for j := 0; j < ref.machs; j++ {
				if got, want := in.At(i, j), ref.etc[i*ref.machs+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s: At(%d, %d) = %v, want %v", name, stage, i, j, got, want)
				}
			}
			if got, want := in.Workload(i), ref.workload[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: Workload(%d) = %v, want %v", name, stage, i, got, want)
			}
		}
		for j := 0; j < ref.machs; j++ {
			if got, want := in.Speed(j), ref.speed[j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: Speed(%d) = %v, want %v", name, stage, j, got, want)
			}
		}
	}
	check("generated")
	in.Finalize()
	check("re-finalized")
}

// layoutShapes stress the staging block: a single entry, one machine,
// job counts below stageRows and off a multiple of it (so the last block
// is partial), and a matrix past Finalize's 512-job tiles (left out under
// -short: it takes most of the test's time, and far more under the race
// detector).
var layoutShapes = [][2]int{{1, 1}, {100, 1}, {7, 3}, {65, 4}, {129, 33}, {2000, 1000}}

// TestMachineMajorMatchesRowMajor: every generator fills the machine-major
// matrix with exactly the logical matrix its row-major fill produced, and
// derives the same workloads and speeds.
func TestMachineMajorMatchesRowMajor(t *testing.T) {
	shapes := layoutShapes
	if testing.Short() {
		shapes = shapes[:len(shapes)-1]
	}
	for _, shape := range shapes {
		jobs, machs := shape[0], shape[1]
		for _, class := range []string{"c_hihi", "s_lohi", "i_hilo"} {
			g := mustSpec(t, fmt.Sprintf("%dx%d:%s:s%d", jobs, machs, class, jobs+machs))
			sameAsRef(t, g.String(), mustGen(t, g), refGenSpec(g))
		}
		for _, class := range []Class{{Consistent, High, Low}, {SemiConsistent, Low, High}, {Inconsistent, High, High}} {
			opt := GenerateOptions{Jobs: jobs, Machs: machs, Seed: 11}
			sameAsRef(t, fmt.Sprintf("braun %d×%d %s", jobs, machs, class.Name(0)), Generate(class, 0, opt), refBraun(class, opt))
		}
	}
}
