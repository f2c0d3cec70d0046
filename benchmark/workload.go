package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) error
}

// workloads is the fixed set, in run order. The why lines are mirrored in
// BENCHMARK.json.
var workloads = []workload{
	{"batch-braun", "the paper's experiment: sequential cMA on the 12 Braun 512x16 instances; 64 KiB matrices, localsearch and schedule kernels do the work", runBraun},
	{"batch-large", "the same engine layers wave-parallel on 2 workers over a 16384x256 instance whose 32 MiB matrix spills the L2", runLarge},
	{"gridd-ingest", "the online path over HTTP: batched submits each closing one admission window, no per-event digest", runIngest},
	{"gridd-repl", "single events through a replicated primary: per-event digest and flush, one follower pulling over TCP", runRepl},
	{"island-tcp", "cMA segments of 8 islands served by 2 workers over loopback TCP: segment compute plus encode plus RPC", runIsland},
}

// setupRepeats is how many times a workload sets up, each time from
// scratch; setup_s is the median CPU time. Most set-ups take a few
// milliseconds, which a single reading would leave to chance.
const setupRepeats = 21

// runCtx carries one workload run's settings and collects its result.
type runCtx struct {
	seed    uint64
	seconds float64 // measured time of the whole run
	trace   bool
	quick   bool
	dir     string  // scratch directory, removed when the run ends
	tr      *tracer // the traced phase's spans; nil without -trace 1
	res     *result
}

// count sizes a phase: how many items fit the phase at rate items per
// second on the reference machine, and at least least. With -trace 1 the
// untraced phase, which gives the trace its baseline, and the traced phase
// get half of the measured time each. The count depends on -seconds
// alone, never on how fast this run goes, so a run's work, and every
// count and quality number it reports, is a pure function of (seed,
// seconds); only its timings vary.
func (rc *runCtx) count(rate float64, least int) int {
	s := rc.seconds
	if rc.trace {
		s /= 2
	}
	return max(least, int(math.Round(s*rate)))
}

// put records a metric; its unit and kind come from the tables.
func (rc *runCtx) put(name string, value float64) {
	rc.putN(name, value, 0)
}

// putN records a metric computed from n samples.
func (rc *runCtx) putN(name string, value float64, n int) {
	e := lookup(name)
	if math.IsNaN(value) || math.IsInf(value, 0) {
		rc.check("finite "+name, false, "metric %s is %v", name, value)
		value = 0
	}
	rc.res.Metrics = append(rc.res.Metrics, metric{Name: name, Value: value, Unit: e.def.Unit, Kind: e.kind, N: n})
}

// check records one outcome of a named output check; any failure fails
// the run. The first failure's detail is kept.
func (rc *runCtx) check(name string, ok bool, format string, args ...any) {
	var c *check
	for i := range rc.res.Checks {
		if rc.res.Checks[i].Name == name {
			c = &rc.res.Checks[i]
		}
	}
	if c == nil {
		rc.res.Checks = append(rc.res.Checks, check{Name: name})
		c = &rc.res.Checks[len(rc.res.Checks)-1]
	}
	if ok {
		c.Passed++
		return
	}
	if c.Failed == 0 {
		c.Detail = fmt.Sprintf(format, args...)
	}
	c.Failed++
}

// ops counts attempted and failed operations.
func (rc *runCtx) ops(attempted, failed int) {
	rc.res.Attempted += attempted
	rc.res.Failed += failed
}

// unitSeed derives unit k's seed; unit 0 runs on the run seed itself.
func unitSeed(seed uint64, k int) uint64 {
	return seed + uint64(k)*0x9e3779b97f4a7c15
}

// cpuTime is the CPU time the process has used, user and system, over
// all threads. Steal time, when the hypervisor runs another guest on
// this one's CPU, is not part of it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch accumulates wall and CPU time over the laps between start
// and stop, so that checks made in the middle of a phase stay out of it.
type stopwatch struct {
	wall, cpu time.Duration
	w0        time.Time
	c0        time.Duration
}

func (s *stopwatch) start() { s.w0, s.c0 = time.Now(), cpuTime() }

func (s *stopwatch) stop() {
	s.wall += time.Since(s.w0)
	s.cpu += cpuTime() - s.c0
}

// timeSetup runs one set-up and returns its CPU time. It collects first,
// so that no garbage of the previous set-up is marked on the set-up's
// clock by the collector's background workers.
func timeSetup(f func() error) (time.Duration, error) {
	runtime.GC()
	var sw stopwatch
	sw.start()
	err := f()
	sw.stop()
	return sw.cpu, err
}

// measured is what the untraced phase of a workload leaves for the
// end-to-end metrics.
type measured struct {
	setups []time.Duration // CPU time of each set-up
	sw     stopwatch       // the measured work
	steps  []time.Duration // wall time of each step
	step   string          // what a step is called in the latency metrics' names; "" is "step"
	ratios []float64       // makespan ÷ lower bound of every solved or sampled instance
	heap   float64         // MiB the workload keeps alive at the end of the measured work
}

// putEndToEnd reports the gated metrics and the wall-clock extras.
func (rc *runCtx) putEndToEnd(m *measured) {
	rc.putN("setup_s", median(seconds(m.setups)), len(m.setups))
	rc.put("cpu_s", m.sw.cpu.Seconds())
	rc.putN("quality_gap", geomean(m.ratios)-1, len(m.ratios))
	rc.put("heap_mb", m.heap)
	rc.put("solve_s", m.sw.wall.Seconds())
	step := cmp.Or(m.step, "step")
	rc.putN(step+"_p50_ms", quantile(millis(m.steps), 0.5), len(m.steps))
	rc.putN(step+"_p90_ms", quantile(millis(m.steps), 0.9), len(m.steps))
	rc.put("error_rate", ratio(float64(rc.res.Failed), float64(rc.res.Attempted)))
}

// putOverhead reports the tracing overhead: the traced phase's wall time
// over the untraced phase's, less one. Both phases do the same work.
func (rc *runCtx) putOverhead(plain, traced stopwatch) {
	rc.put("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
}

// settle waits, for up to a second, until no more than n goroutines run:
// an engine that has returned may still be stopping worker goroutines
// that reference its state, which would otherwise count as live heap.
func settle(n int) {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// heapMiB is the live heap after a full collection. It counts allocated
// objects (HeapAlloc), not the spans that hold them (HeapInuse), whose
// rounding would swing a heap of a few MiB by several percent. heap_mb is
// its growth from before a workload's set-up to the end of its measured
// work: what the program under test keeps alive, without the results the
// benchmark itself keeps.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
