// Package gridcma is a Go reproduction of "Efficient Batch Job Scheduling
// in Grids using Cellular Memetic Algorithms" (Xhafa, Alba, Dorronsoro —
// IPDPS/IPPS 2007).
//
// The library implements the paper's cellular memetic algorithm (cMA) for
// scheduling independent jobs on heterogeneous computational grids under
// the ETC (Expected Time to Compute) model, together with everything the
// paper's evaluation depends on: the Braun et al. benchmark generator, the
// LJFR-SJFR and Min-Min style constructive heuristics, the three baseline
// genetic algorithms (Braun GA, steady-state GA, Struggle GA), the GSA
// hybrid, simulated annealing, tabu search, the coarse-grained island
// model, a discrete-event dynamic grid simulator, and an experiment
// harness that regenerates every table and figure of the paper's
// evaluation section.
//
// This root package is the stable facade: it re-exports the types and
// constructors an application needs, so downstream users never import the
// internal packages directly.
//
// # Schedulers and the registry
//
// Every metaheuristic implements one interface:
//
//	type Scheduler interface {
//		Name() string
//		Run(ctx context.Context, in *Instance, opts ...RunOption) (Result, error)
//	}
//
// Algorithms are built by name from the registry. The built-in names are
//
//	cma cma-par cma-sync island braun-ga ss-ga struggle-ga gsa sa tabu
//
// (Algorithms lists them; Register adds your own.) Run is configured with
// functional options: WithBudget / WithMaxTime / WithMaxIterations bound
// the search, WithSeed makes it reproducible, WithObserver streams
// progress (once before the first iteration, then after every one; every
// engine but the island model runs internal/run's one budget loop, Loop),
// WithLambda reweighs the bi-objective fitness
// λ·makespan + (1−λ)·mean_flowtime (default 0.75), and WithWorkers sets
// the goroutines evaluating offspring. Options passed to New become
// defaults for every Run of that scheduler.
//
// The multi-objective extension the paper's conclusions call for is
// LambdaSweep: it runs the cMA unchanged at each weight of a λ grid and
// merges the best schedules into one ParetoFront of non-dominated
// (makespan, flowtime) points.
//
// # Parallelism and determinism
//
// cma-par is the block-parallel asynchronous engine: the population grid
// is partitioned (internal/cell.Partition) into waves of cells with
// non-overlapping neighborhoods, each wave's offspring are evaluated
// concurrently from per-update RNG streams, and commits happen in draw
// order between waves. Results depend only on the seed — a run with
// WithWorkers(1) and WithWorkers(64) yields byte-identical schedules, so
// parallel runs stay reproducible across machines. cma-sync applies the
// same executor with the whole generation as one frozen wave. The
// sequential cma keeps the paper's exact single-stream semantics.
//
// Quick start:
//
//	in, _ := gridcma.BenchmarkInstance("u_c_hihi.0")
//	sched, _ := gridcma.New("cma")
//	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	res, _ := sched.Run(ctx, in, gridcma.WithMaxTime(2*time.Second), gridcma.WithSeed(1))
//	fmt.Println(res.Makespan, res.Flowtime)
//
// Cancelling ctx stops any run at its next budget check; a cancelled run
// returns its best-so-far schedule together with ctx.Err(). A run with no
// budget option and no context deadline fails with ErrUnbounded.
//
// # Evaluation: scratch, incremental, probe, sweep and cached scan
//
// The evaluation layer (internal/schedule) works at five temperatures.
// All of them read the ETC matrix, which etc.Instance stores
// machine-major: entry (job j, machine m) at m*Jobs + j, each machine's
// column one contiguous run. Every replay over one machine's job list
// reads that machine's column, and the partner costs a critical-swap
// query gathers all come from the critical machine's column.
// Scratch evaluation (Objective.Evaluate, NewState, State.SetSchedule)
// rebuilds everything from a genotype — the entry point for external
// schedules. The cMA rebuilds a crossover child from its first parent
// with State.SetScheduleFrom, which copies the parent's evaluation and
// re-lists only the jobs whose machine differs instead of sorting every
// list, bit-identical to SetSchedule. Incremental evaluation (State.Move,
// State.Swap) maintains per-machine completions, flowtime and an indexed
// tournament tree over the completions, making Makespan, MakespanMachine
// and the scalarised fitness O(1) reads with O(log M) maintenance —
// every committed search step uses it. Probe evaluation
// (State.FitnessAfterMove, State.FitnessAfterSwap) returns the exact
// fitness a hypothetical move or swap would produce, allocation-free and
// without mutating the state, bit-identical to applying the move,
// evaluating and reverting. Sweep evaluation batches whole candidate
// neighborhoods over shared partial results: FitnessAfterMoveSweep
// scores moving one job to every machine in one pass, and the cached
// move-probe context keeps the top completions so batches of unrelated
// probes skip the per-probe tree walks. Every sweep value equals its
// scalar probe bit for bit. Cached-scan evaluation (State.Scans →
// ScanCache) is the query layer on top: the move side keeps the
// frozen-state probe context, keyed on the state epoch, and the LMCTS
// critical-swap query is one bounded pass that memoizes nothing (every
// committed LMCTS swap changes the critical machine's contents, the
// context any per-machine memo would be keyed on). The pass folds partner
// machines in index order, carrying the best pair found so far as the
// next machine's bound; both job lists are in SPT order, so visiting them
// from their tails lets a lower bound stop each row at the first pair
// that provably loses. Each critical job's side of its pairs is computed
// once per query, and per partner machine only the partners' costs on
// the critical machine are gathered: a cut that only moves left along
// the rows skips every partner whose critical side alone exceeds the
// bound, and a partner's own-machine cost is loaded only at the pairs a
// row reaches. A lexicographic (value, SPT position, id) update keeps the
// winner independent of the visiting order, so the pass is bit-identical
// to the full sweep the tests keep as its reference — an LMCTS
// commit-then-query costs about 3.4 µs at 512×16, the full sweep about
// 58 µs. The local searches (LM, SLM,
// LMCTS), SA and tabu search score candidates with the hottest
// applicable mode and commit only accepted steps — their hot loops
// allocate nothing and run several times faster than the historical
// apply+revert formulation. The state epoch advances on every commit
// and copy, and the move context compares it on every read, so a state
// needs no clean-up before it goes back to a pool. Each machine's epoch
// is a content version, unique across the process: every change to the
// machine draws a fresh one and CopyFrom and Clone carry the source's,
// so the daemon's digest re-hashes only the machines whose version
// moved, and CopyFrom copies only the job lists the destination does not
// already hold — most of them, when the cMA copies a neighbour over a
// scratch under takeover.
//
// MakespanMachine ties break toward the lowest machine index — a
// documented contract (LMCTS derives its critical machine from it),
// pinned by a regression test.
//
// # Trajectory compatibility
//
// A registry name pins an exact search trajectory: same instance, seed
// and budget always reproduce the same schedule, byte for byte
// (testdata/golden.json). Evaluation-path rewrites ship only when
// provably behavior-preserving; candidate-stream reorderings ship as new
// names — sa-sweep (per-job proposals scored over every machine by
// FitnessAfterMoveSweep) — so the frozen names' trajectories never move.
// Such a variant stays only while it beats its parent on both geomean
// makespan and geomean fitness, at equal CPU, on the Braun suite.
//
// # Batch execution and portfolio racing
//
// RunBatch fans instances × algorithms × seeds over a worker pool with
// deterministic per-task seeds — the output is identical for any worker
// count. Race runs a portfolio of schedulers on one instance concurrently
// and cancels the losers as soon as the first finishes. Both drive the
// public Scheduler directly, so a custom Scheduler joins a batch or a
// race exactly like a registry one; each task's Run gets the batch
// context, WithBudget and WithSeed, after a race's own options. The
// paper's tables (internal/experiments, `gridsched experiments`) run
// through RunBatch:
//
//	batch, _ := gridcma.RunBatch(ctx, gridcma.BatchSpec{
//		Instances:  []*gridcma.Instance{in},
//		Algorithms: algs,
//		Budget:     gridcma.Budget{MaxTime: time.Second},
//		Repeats:    10,
//	})
//	outcome, _ := gridcma.Race(ctx, in, algs, gridcma.WithMaxTime(2*time.Second))
//
// The same Scheduler contract drives the dynamic grid simulator:
// BatchPolicy turns any Scheduler into a periodic-activation policy, and
// refuses a budget that could not bound every activation.
//
// # Scaling to large instances
//
// The benchmark suite is 512×16; the engine itself runs far past it.
// internal/etc's GenSpec ("<jobs>x<machs>[:<class>][:s<seed>]",
// e.g. "100000x1000:c_hihi:s7") is a deterministic streaming CVB
// generator: the same spec yields a byte-identical ETC matrix in every
// process on one architecture (pinned on amd64), each job's row is drawn
// into a small staging block and the block is written out one column
// run at a time, with no per-row allocations, consistent rows are
// ordered on the entries' float bits by an allocation-free sorting
// network (rows of at most 16 entries) or counting sort (longer rows),
// both byte-identical to a comparison sort; the matrix is the only
// jobs×machines structure.
// Everything the
// evaluator's State owns is O(jobs + machines): its per-machine lists
// and prefix sums live in shared backing arrays and are rebuilt by an
// allocation-free bucket sort that is byte-identical to the historical
// path, ETC ties included. gridsched -gen runs any algorithm on a
// generated instance, gridsched experiments -run frontier prints the
// scaling-ladder table, and the benchmark's batch-large workload
// (benchmark/) runs the wave-parallel cMA on a 16384×256 instance.
// An LMCTS step is one bounded pass over the partner machines' lists,
// which does not grow with the matrix size.
//
// # Online scheduling
//
// cmd/gridd runs the rolling-horizon daemon built on internal/daemon: a
// long-running service holding one live schedule.State per grid.
// Submissions and machine churn arrive as events (internal/eventlog),
// admissions happen in batch windows, and each window warm-starts the
// local search from the live state through State.SetScheduleDiff —
// re-listing only the placed jobs — instead of a re-solve.
// The daemon is deterministic by construction (Grid.Apply is a pure
// function of state and event), journals every event to a write-ahead
// log, and snapshots restore bit-identically: the same snapshot plus the
// same event log reproduces the same schedule trajectory, byte for byte.
// The simulator exports its event stream in the daemon's log format
// (SimConfig.Record, gridsched sim -trace-out), so simulated workloads replay
// through the daemon directly. GET /stats reports submit→placement and
// admission latencies from fixed-memory histograms; the benchmark's
// gridd-ingest and gridd-repl workloads (benchmark/) measure the daemon
// over HTTP and under replication.
//
// # Distributed islands & failure model
//
// internal/island/dist holds the island model's one round loop: its
// coordinator runs the library's island engine over in-process workers,
// and runs the same loop across supervised worker processes for
// cmd/islandd. The design premise is that one migration
// segment is a pure function (instance spec, engine config, island seed,
// iteration count, population in) → (result, population out), that each
// request carries the whole population, and that the coordinator owns
// every island's population between segments. That one decision buys the
// whole failure model — a retried, duplicated or restarted call is always
// safe because the worker holds nothing the coordinator cannot re-send.
// A worker keeps each island's live States between segments only as a
// verified cache, re-targeted at the shipped population, so a lost or
// stale cache costs a rebuild and never changes a reply. However a run
// ends, the coordinator sends each live worker a release call, and the
// worker drops the run's meshes and scratch pool, keeping only its
// instances.
//
// Calls travel over a pluggable transport (internal/transport): an
// in-process Local client for tests and single-host runs, and a TCP
// JSONL framing (one JSON header line plus one payload line; replication
// frames carry their payload verbatim on it) dialed against cmd/islandd
// worker daemons. The payload line is a JSON
// array of schedules, each an array of machine ids, in exactly the form
// AppendPops writes ([[0,3,1],[2,2,0]]: no whitespace, no leading zeros,
// every id an int); it is encoded without allocating and decoded by
// ParsePops in one pass without reflection, and anything else is
// rejected. A segment reply's payload line holds its best schedule too,
// after the population, and its header carries Fits, each individual's
// fitness taken on the worker's final States, so the coordinator ranks
// migrants without re-evaluating them; it checks every reply first, and
// a bad one loses the island like a dead worker.
// Every call to a worker process carries a timeout (an in-process
// segment carries none) and a jittered exponential retry policy
// (internal/retry, the policy gridd's replication follower also backs
// off with); a failed or timed-out call marks the worker dead, so a
// silently hung worker is found by the call it hangs, and the
// supervisor lazily restarts it through the worker factory at the next
// attempt, re-sending the population. When a worker exhausts its
// restart budget it is declared permanently down, its islands are
// recorded dead, the migration ring heals around them, and the run
// finishes on the survivors — graceful degradation, never a hung
// barrier.
//
// Determinism is the contract that makes any of this testable: under an
// iteration budget a failure-free run is byte-identical to the wholesale
// reference loop of the dist tests (every mesh rebuilt from its
// schedules at every segment) for every transport and worker count, the
// in-process island engine included, and a faulted run is a pure
// function of (seed, fault plan) — transient faults
// (drops, delays, duplicates, kills with successful restart) are fully
// absorbed by retry and reproduce the failure-free bytes, while
// permanent deaths reproduce a predictable survivor set and per-round
// digest trajectory. A time budget is checked at round boundaries, so a
// run ends after the round in which its time ran out, and a cancelled
// run returns its best so far with the context's error. The coordinator
// keeps its state in memory only, so a coordinator crash loses the run;
// under an iteration budget a rerun with the same seed reproduces its
// bytes. The coordinator holds no fault-injection code: the
// chaos torture (TestTortureSmall in internal/island/dist) wraps each
// worker's transport client in a test-only injector that drops, delays,
// duplicates or kills calls by (worker, round), replays seeded fault
// plans twice each and enforces all of it bit-for-bit; the benchmark's
// island-tcp workload (benchmark/) measures migration rounds over
// loopback TCP.
//
// README.md is the system inventory; the experiment runners
// (internal/experiments, `gridsched experiments`) print each measured
// table next to the paper's published values.
package gridcma
