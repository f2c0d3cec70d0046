package cma

import (
	"gridcma/internal/evalpool"
	"gridcma/internal/rng"
	"gridcma/internal/schedule"
)

// This file is the partitioned parallel executor shared by the
// block-parallel asynchronous engine and the synchronous engine. Both
// express one iteration as a sequence of draws — (cell, operator) pairs
// taken from the sweep orders — and differ only in how the draws are
// batched into execution waves:
//
//   - Asynchronous: cell.Partition.PlanWaves groups the draw sequence
//     into waves of pairwise non-interacting cells, scheduling every draw
//     after all earlier conflicting draws. Waves run one after another
//     with commits in between, so executing each wave's draws
//     concurrently is provably equivalent to executing the whole sequence
//     one by one.
//   - Synchronous: the entire iteration is a single wave computed against
//     the frozen generation (selection reads a snapshot of the fitness
//     vector) and committed at the end in draw order.
//
// Determinism for any worker count follows from three choices: each draw
// evaluates into its own scratch State, each draw derives its RNG stream
// from (seed, iteration, draw index) rather than from a shared source,
// and commits — the only writes to shared state — happen sequentially in
// draw order between waves.

// draw is one pending update of an iteration.
type draw struct {
	cell     int
	mutation bool // false = recombination
	scratch  *evalpool.Scratch
	rng      rng.Source // reseeded per iteration from (seed, iter, index)
	fit      float64
}

// iterateBatch runs one iteration through the wave executor. frozen
// selects synchronous semantics (one wave against the frozen generation);
// otherwise the draws run block-asynchronously in partition waves.
func (e *engine) iterateBatch(iter int, frozen bool) {
	nUpd := e.cfg.Recombinations + e.cfg.Mutations
	if cap(e.draws) < nUpd {
		e.draws = make([]draw, nUpd)
		e.drawCells = make([]int, nUpd)
		for k := range e.draws {
			e.draws[k].scratch = e.pool.Get()
		}
	}
	draws := e.draws[:nUpd]
	for k := 0; k < e.cfg.Recombinations; k++ {
		draws[k].cell, draws[k].mutation = e.recOrd.Next(), false
		e.drawCells[k] = draws[k].cell
	}
	for k := e.cfg.Recombinations; k < nUpd; k++ {
		draws[k].cell, draws[k].mutation = e.mutOrd.Next(), true
		e.drawCells[k] = draws[k].cell
	}

	popAt := func(i int) *schedule.State { return e.pop[i] }
	fitAt := func(i int) float64 { return e.fit[i] }
	if frozen {
		e.frozenFit = append(e.frozenFit[:0], e.fit...)
		frozenFit := e.frozenFit
		fitAt = func(i int) float64 { return frozenFit[i] }
		// One wave holding every draw index.
		e.waves = e.waves[:0]
		if cap(e.waves) > 0 {
			e.waves = e.waves[:1]
			e.waves[0] = e.waves[0][:0]
		} else {
			e.waves = append(e.waves, nil)
		}
		for k := range draws {
			e.waves[0] = append(e.waves[0], k)
		}
	} else {
		if e.part == nil {
			panic("cma: batch iteration without a partition")
		}
		e.waves = e.part.PlanWaves(e.drawCells[:nUpd], e.waves)
	}

	for _, wave := range e.waves {
		if e.budget.Cancelled() {
			return
		}
		e.runWave(iter, wave, popAt, fitAt)
		for _, k := range wave {
			d := &draws[k]
			e.evals++
			e.replace(d.cell, d.scratch, d.fit)
		}
	}
}

// Persistent worker pool. The executor used to spawn a fresh set of
// goroutines for every wave — tens of thousands of goroutine launches per
// run on fine partitions. Instead, the engine now starts its workers once
// (lazily, at the first parallel batch) and feeds them task indices over
// a channel; a batch is one WaitGroup cycle. The channel send
// happens-before the worker's receive, so writes to taskExec and the
// per-draw state made before dispatch are visible without extra locking,
// and determinism is untouched: every task still writes only its own
// draw slot, and commits stay sequential in draw order between waves.

// startWorkers lazily launches the configured number of persistent
// workers. Batches narrower than the pool leave the excess workers
// parked on the channel, which costs nothing.
func (e *engine) startWorkers() {
	if e.tasks != nil {
		return
	}
	workers := e.workers()
	// Each worker ranges over its own copy of the channel: stopWorkers
	// clears e.tasks, possibly before a worker has started.
	tasks := make(chan int, workers)
	e.tasks = tasks
	for w := 0; w < workers; w++ {
		go func() {
			for i := range tasks {
				e.taskExec(i)
				e.taskWG.Done()
			}
		}()
	}
}

// stopWorkers terminates the persistent workers; the engine is done.
func (e *engine) stopWorkers() {
	if e.tasks != nil {
		close(e.tasks)
		e.tasks = nil
	}
}

// runTasks executes exec(0..n-1) on the persistent workers (sequentially
// when the engine is configured for one worker), returning when all have
// finished.
func (e *engine) runTasks(n int, exec func(int)) {
	if e.workers() <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			exec(i)
		}
		return
	}
	e.startWorkers()
	e.taskExec = exec
	e.taskWG.Add(n)
	for i := 0; i < n; i++ {
		e.tasks <- i
	}
	e.taskWG.Wait()
}

// runWave evaluates the draws of one wave, fanning them across the
// persistent workers. Every draw's RNG stream depends only on (seed,
// iteration, draw index), so the wave's results are independent of how
// the draws land on goroutines.
func (e *engine) runWave(iter int, wave []int, popAt func(int) *schedule.State, fitAt func(int) float64) {
	e.runTasks(len(wave), func(i int) {
		k := wave[i]
		d := &e.draws[k]
		d.rng.Reseed(e.seed ^ mix(uint64(iter), uint64(k)))
		if d.mutation {
			d.fit = e.mutateInto(d.cell, d.scratch, popAt, &d.rng)
		} else {
			d.fit = e.recombineInto(d.cell, d.scratch, popAt, fitAt, &d.rng)
		}
	})
}

// initCells is the parallel population initialisation: per-cell RNG
// streams fanned across the persistent workers. Identical results for
// every worker count.
func (e *engine) initCells(base schedule.Schedule, frac float64) {
	e.runTasks(len(e.pop), func(i int) {
		var r rng.Source
		r.Reseed(e.seed ^ mix(^uint64(0), uint64(i)))
		e.initCell(i, base, frac, &r)
	})
}

// mix hashes two words into one (splitmix-style finaliser over the pair).
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
