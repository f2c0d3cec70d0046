// Package etc implements the Expected Time to Compute (ETC) instance model
// of Braun et al. (JPDC 2001), the benchmark family on which the paper
// evaluates its cellular memetic scheduler.
//
// An instance is an nb_jobs × nb_machines matrix where ETC[i][j] is the
// expected wall-clock time of job i on machine j, plus a per-machine ready
// time (the time at which the machine finishes previously assigned work).
// The original benchmark files are not redistributable; Generate rebuilds
// instances of every class with the published range-based method, so the
// statistical family (and hence the shape of all experimental results) is
// preserved.
package etc

import (
	"fmt"
	"math"

	"gridcma/internal/rng"
)

// Consistency describes the structure of an ETC matrix.
type Consistency int

const (
	// Inconsistent matrices have no structure: a machine may be faster
	// than another for one job and slower for the next.
	Inconsistent Consistency = iota
	// Consistent matrices satisfy: if machine a is faster than machine b
	// for one job, it is faster for every job.
	Consistent
	// SemiConsistent matrices embed a consistent sub-matrix (even columns
	// of every row, per the benchmark's construction) in an otherwise
	// inconsistent matrix.
	SemiConsistent
)

// String returns the single-letter code used in Braun instance names.
func (c Consistency) String() string {
	switch c {
	case Consistent:
		return "c"
	case Inconsistent:
		return "i"
	case SemiConsistent:
		return "s"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// Heterogeneity is the spread of job workloads or machine speeds.
type Heterogeneity int

const (
	// Low heterogeneity draws from a narrow range.
	Low Heterogeneity = iota
	// High heterogeneity draws from a wide range.
	High
)

// String returns the two-letter code used in Braun instance names.
func (h Heterogeneity) String() string {
	if h == High {
		return "hi"
	}
	return "lo"
}

// Range limits of the Braun et al. range-based generation method.
const (
	// TaskHeterogeneityHigh is the upper bound of the per-job baseline
	// draw B[i] ~ U[1, 3000] for high job heterogeneity.
	TaskHeterogeneityHigh = 3000
	// TaskHeterogeneityLow is the analogous bound (100) for low job
	// heterogeneity.
	TaskHeterogeneityLow = 100
	// MachineHeterogeneityHigh bounds the per-entry multiplier
	// r[i][j] ~ U[1, 1000] for high machine heterogeneity.
	MachineHeterogeneityHigh = 1000
	// MachineHeterogeneityLow is the analogous bound (10).
	MachineHeterogeneityLow = 10
)

// Class identifies one of the 12 Braun benchmark instance classes.
type Class struct {
	Consistency Consistency
	JobHet      Heterogeneity // heterogeneity of job workloads
	MachineHet  Heterogeneity // heterogeneity of machine capacities
}

// Name returns the benchmark-style class name with trial index k, e.g.
// "u_c_hihi.0": uniform distribution, consistent, high job heterogeneity,
// high machine heterogeneity, trial 0.
func (c Class) Name(k int) string {
	return fmt.Sprintf("u_%s_%s%s.%d", c.Consistency, c.JobHet, c.MachineHet, k)
}

// AllClasses returns the 12 benchmark classes in the order the paper's
// tables list them: consistent, inconsistent, semi-consistent; within each,
// hihi, hilo, lohi, lolo.
func AllClasses() []Class {
	var out []Class
	for _, cons := range []Consistency{Consistent, Inconsistent, SemiConsistent} {
		out = append(out,
			Class{cons, High, High},
			Class{cons, High, Low},
			Class{cons, Low, High},
			Class{cons, Low, Low},
		)
	}
	return out
}

// ParseClass parses a benchmark instance name of the form u_x_yyzz.k and
// returns its class and trial index.
func ParseClass(name string) (Class, int, error) {
	var cons, het string
	var k int
	if _, err := fmt.Sscanf(name, "u_%1s_%4s.%d", &cons, &het, &k); err != nil {
		return Class{}, 0, fmt.Errorf("etc: malformed instance name %q: %v", name, err)
	}
	var c Class
	switch cons {
	case "c":
		c.Consistency = Consistent
	case "i":
		c.Consistency = Inconsistent
	case "s":
		c.Consistency = SemiConsistent
	default:
		return Class{}, 0, fmt.Errorf("etc: unknown consistency %q in %q", cons, name)
	}
	switch het[:2] {
	case "hi":
		c.JobHet = High
	case "lo":
		c.JobHet = Low
	default:
		return Class{}, 0, fmt.Errorf("etc: unknown job heterogeneity in %q", name)
	}
	switch het[2:] {
	case "hi":
		c.MachineHet = High
	case "lo":
		c.MachineHet = Low
	default:
		return Class{}, 0, fmt.Errorf("etc: unknown machine heterogeneity in %q", name)
	}
	return c, k, nil
}

// Instance is a complete scheduling problem: an ETC matrix plus machine
// ready times. Instances are immutable once built; schedulers never write
// to them, so a single Instance may be shared by concurrent runs.
//
// The matrix is stored machine-major: entry (job j, machine m) sits at
// m*Jobs + j, so each machine's column is one contiguous run. The
// evaluation kernels walk one machine's job list at a time, and the
// sampled LMCTS reads random jobs' entries on the critical machine; both
// then read one column instead of one row per job. Everything outside
// the storage — At and Set, the text format, Validate's
// messages and every generator's draw order — speaks of the logical
// (job, machine) matrix, which is row-major.
type Instance struct {
	Name  string
	Jobs  int
	Machs int
	// ETC is machine-major: ETC[m*Jobs+j] is the expected time of job j
	// on machine m, and ETC[m*Jobs:(m+1)*Jobs] is machine m's column. A
	// flat slice keeps the hot evaluation loops cache-friendly and
	// allocation-free.
	ETC []float64
	// Ready[j] is the time machine j becomes available. The Braun
	// benchmark uses all-zero ready times; the dynamic simulator supplies
	// non-zero ones.
	Ready []float64

	workload []float64 // mean ETC per job (lazily built by Finalize)
	speed    []float64 // 1 / mean ETC per machine
	gen      *genState // GenerateInto's state; nil unless a GenSpec filled the instance
}

// maxEntries caps jobs × machines: 2^31 matrix entries (16 GiB), far
// past the 100k × 1k frontier's 1e8. Dimensions from outside the program
// — instance file headers, generator specs — are checked against it
// before anything is allocated.
const maxEntries = 1 << 31

// CheckDims rejects dimensions that are not positive or whose product
// exceeds maxEntries (an overflowing product included): the check New
// panics on, for callers that must turn it into an error first.
func CheckDims(jobs, machs int) error {
	if jobs <= 0 || machs <= 0 {
		return fmt.Errorf("etc: dimensions %d×%d must be positive", jobs, machs)
	}
	if int64(jobs) > maxEntries/int64(machs) {
		return fmt.Errorf("etc: dimensions %d×%d exceed %d matrix entries", jobs, machs, int64(maxEntries))
	}
	return nil
}

// New allocates an Instance with the given dimensions, zero ETC entries and
// zero ready times. Call Finalize after filling ETC.
func New(name string, jobs, machs int) *Instance {
	if err := CheckDims(jobs, machs); err != nil {
		panic(err)
	}
	return &Instance{
		Name:  name,
		Jobs:  jobs,
		Machs: machs,
		ETC:   make([]float64, jobs*machs),
		Ready: make([]float64, machs),
	}
}

// At returns ETC[job][mach].
func (in *Instance) At(job, mach int) float64 { return in.ETC[mach*in.Jobs+job] }

// Set assigns ETC[job][mach] = v. It must not be called after the
// instance is shared with schedulers.
func (in *Instance) Set(job, mach int, v float64) { in.ETC[mach*in.Jobs+job] = v }

// Bytes returns the instance's resident memory footprint in bytes: the
// ETC matrix, ready times and the derived workload and speed arrays. The
// struct header and name are ignored — at frontier scale they are noise
// against the matrix.
func (in *Instance) Bytes() int {
	return (len(in.ETC) + len(in.Ready) + len(in.workload) + len(in.speed)) * 8
}

// Finalize computes the derived per-job workloads and per-machine speeds
// used by workload-aware heuristics (LJFR-SJFR). It must be called after
// the ETC matrix is filled (New* constructors in this package do so) and
// may be re-called after in-place edits: on a same-shape re-call it reuses
// the previously allocated workload and speed arrays instead of allocating
// fresh ones — the daemon's live-instance extraction re-finalizes at every
// admission cycle, which at 100k jobs would otherwise churn 800KB per
// cycle. Column sums accumulate directly into the speed array (then invert
// in place), so a re-call allocates nothing at all.
//
// Each job's sum folds in machine order and each machine's in job order:
// the pass walks tiles of finalizeTile jobs, and within a tile every
// column in machine order, so the tile's running row sums stay in L1
// while the columns stream.
func (in *Instance) Finalize() {
	workload, colSum := in.resetDerived()
	sumColumns(in.ETC, in.Jobs, workload, colSum)
	in.finishDerived()
}

// finalizeTile is the number of jobs whose running row sums Finalize
// keeps while it streams the columns: 4 KiB of sums.
const finalizeTile = 512

// sumColumns adds each job's entries, in machine order, to workload and
// each machine's, in job order, to colSum.
func sumColumns(etc []float64, jobs int, workload, colSum []float64) {
	for i0 := 0; i0 < jobs; i0 += finalizeTile {
		i1 := min(i0+finalizeTile, jobs)
		w := workload[i0:i1]
		for m := range colSum {
			cs := colSum[m]
			for k, v := range etc[m*jobs+i0 : m*jobs+i1] {
				w[k] += v
				cs += v
			}
			colSum[m] = cs
		}
	}
}

// resetDerived sizes the workload and speed arrays for the instance's
// shape, reusing same-shape ones, and zeroes both: the row sums collect
// in workload and the column sums in speed until finishDerived turns
// them into means and speeds.
func (in *Instance) resetDerived() (workload, colSum []float64) {
	if cap(in.workload) >= in.Jobs {
		in.workload = in.workload[:in.Jobs]
	} else {
		in.workload = make([]float64, in.Jobs)
	}
	if cap(in.speed) >= in.Machs {
		in.speed = in.speed[:in.Machs]
	} else {
		in.speed = make([]float64, in.Machs)
	}
	clear(in.workload)
	clear(in.speed)
	return in.workload, in.speed
}

// finishDerived divides each job's row sum into its mean and inverts each
// machine's mean column sum into its speed.
func (in *Instance) finishDerived() {
	for i, s := range in.workload {
		in.workload[i] = s / float64(in.Machs)
	}
	for j, cs := range in.speed {
		mean := cs / float64(in.Jobs)
		in.speed[j] = 0
		if mean > 0 {
			in.speed[j] = 1 / mean
		}
	}
}

// Workload returns the derived workload of job i (mean ETC across
// machines). The ETC benchmark does not ship explicit per-job instruction
// counts, so this proxy stands in for them (LJFR-SJFR orders jobs by it).
func (in *Instance) Workload(i int) float64 {
	if in.workload == nil {
		panic("etc: Workload before Finalize")
	}
	return in.workload[i]
}

// Speed returns the derived relative speed of machine j (higher is faster).
func (in *Instance) Speed(j int) float64 {
	if in.speed == nil {
		panic("etc: Speed before Finalize")
	}
	return in.speed[j]
}

// Validate checks structural invariants: positive dimensions, matching
// slice lengths, finite strictly positive ETC entries and finite
// non-negative ready times. It returns a descriptive error for the first
// violation found.
func (in *Instance) Validate() error {
	if in.Jobs <= 0 || in.Machs <= 0 {
		return fmt.Errorf("etc: non-positive dimensions %d×%d", in.Jobs, in.Machs)
	}
	if len(in.ETC) != in.Jobs*in.Machs {
		return fmt.Errorf("etc: ETC length %d, want %d", len(in.ETC), in.Jobs*in.Machs)
	}
	if len(in.Ready) != in.Machs {
		return fmt.Errorf("etc: Ready length %d, want %d", len(in.Ready), in.Machs)
	}
	if err := checkEntries(in.ETC, in.Jobs, in.Machs); err != nil {
		return err
	}
	for j, v := range in.Ready {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("etc: Ready[%d] = %v, want finite >= 0", j, v)
		}
	}
	return nil
}

// checkEntries reports the first entry, in logical (job, machine) order,
// that is not finite and strictly positive.
func checkEntries(etc []float64, jobs, machs int) error {
	for i := 0; i < jobs; i++ {
		for j := 0; j < machs; j++ {
			if v := etc[j*jobs+i]; !(v > 0) || math.IsInf(v, 1) {
				return fmt.Errorf("etc: ETC[%d][%d] = %v, want finite > 0", i, j, v)
			}
		}
	}
	return nil
}

// GenerateOptions controls instance generation.
type GenerateOptions struct {
	Jobs  int // number of jobs (benchmark: 512)
	Machs int // number of machines (benchmark: 16)
	Seed  uint64
}

// BenchmarkDims are the dimensions of every instance in the Braun suite.
const (
	BenchmarkJobs  = 512
	BenchmarkMachs = 16
)

// Generate builds an instance of the given class with the range-based
// method: ETC[i][j] = B[i] * r[i][j] with B[i] ~ U[1, Rtask] and
// r[i][j] ~ U[1, Rmach], then applies the class's consistency transform.
func Generate(class Class, k int, opt GenerateOptions) *Instance {
	if opt.Jobs == 0 {
		opt.Jobs = BenchmarkJobs
	}
	if opt.Machs == 0 {
		opt.Machs = BenchmarkMachs
	}
	r := rng.New(opt.Seed)
	in := New(class.Name(k), opt.Jobs, opt.Machs)

	rTask := float64(TaskHeterogeneityLow)
	if class.JobHet == High {
		rTask = TaskHeterogeneityHigh
	}
	rMach := float64(MachineHeterogeneityLow)
	if class.MachineHet == High {
		rMach = MachineHeterogeneityHigh
	}

	// A Braun instance is never regenerated in place, so it keeps no scratch.
	var stage []float64
	var s rowSorter
	fillColumns(in, &stage, &s, class.Consistency, func(row []float64) {
		b := r.Uniform(1, rTask)
		// b * r.Uniform(1, rMach) per entry, operation for operation,
		// with the row's draws made in one batch.
		r.Float64Into(row)
		for j, u := range row {
			row[j] = b * (1 + (rMach-1)*u)
		}
	})
	return in
}

// GenerateByName parses a benchmark instance name and generates the
// corresponding instance with a seed derived from the name, so that
// "u_c_hihi.0" is the same instance in every process on one
// architecture; TestBraunGoldenDigests pins its bytes on amd64 (see
// GenSpec.Generate for other architectures).
func GenerateByName(name string) (*Instance, error) {
	class, k, err := ParseClass(name)
	if err != nil {
		return nil, err
	}
	return Generate(class, k, GenerateOptions{Seed: nameSeed(name)}), nil
}

// nameSeed hashes an instance name to a stable 64-bit seed (FNV-1a).
func nameSeed(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// PairNoise maps (job id, machine id) to a stable multiplier in
// [1, spread) by a hash under seed: the per-pair inconsistency of the
// dynamic grids. gridsim and the daemon both draw their ETC noise from
// it, so a simulation exported as an event log sees the same ETC
// structure when replayed through the daemon. Spread 1 yields exactly 1.
func PairNoise(jobID, machID, seed uint64, spread float64) float64 {
	if spread == 1 {
		return 1
	}
	x := jobID*0x9e3779b97f4a7c15 ^ machID*0xbf58476d1ce4e5b9 ^ seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	u := float64(x>>11) / (1 << 53)
	return 1 + u*(spread-1)
}
