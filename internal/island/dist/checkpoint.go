package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"gridcma/internal/atomicfile"
	"gridcma/internal/etc"
	"gridcma/internal/run"
	"gridcma/internal/schedule"
)

// checkpoint is the coordinator's durable state after a round: because
// every request carries its island's whole population and a worker keeps
// only a cache it re-targets at it, the populations plus the alive mask
// ARE the whole run, so a single JSON file written with the temp+fsync+rename
// idiom makes the coordinator itself crash-restartable — a new process
// with the same Config and seed resumes at the checkpointed round and
// (absent faults) finishes with the exact bytes the uninterrupted run
// would have produced.
type checkpoint struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Islands int    `json:"islands"`
	Workers int    `json:"workers"`

	Round      int       `json:"round"`
	TotalIters int       `json:"total_iters"`
	TotalEvals int64     `json:"total_evals"`
	Alive      []bool    `json:"alive"`
	Pops       [][][]int `json:"pops"`

	BestSched    []int   `json:"best_sched,omitempty"`
	BestFitness  float64 `json:"best_fitness"`
	BestMakespan float64 `json:"best_makespan"`
	BestFlowtime float64 `json:"best_flowtime"`

	Digests []string `json:"digests"`
	Deaths  []Death  `json:"deaths,omitempty"`
}

const checkpointVersion = 1

func (cp *checkpoint) pops() [][]schedule.Schedule {
	out := make([][]schedule.Schedule, len(cp.Pops))
	for i, pop := range cp.Pops {
		if pop == nil {
			continue
		}
		out[i] = make([]schedule.Schedule, len(pop))
		for k, s := range pop {
			out[i][k] = schedule.Schedule(s)
		}
	}
	return out
}

// best returns the checkpointed best with its makespan, flowtime and
// fitness recomputed from the schedule: the stored values are never
// trusted. The schedule must have passed check.
func (cp *checkpoint) best(in *etc.Instance, o schedule.Objective) run.Result {
	if cp.BestSched == nil {
		return run.Result{}
	}
	st := schedule.NewState(in, cp.BestSched)
	return run.Result{
		Best:     schedule.Schedule(cp.BestSched),
		Fitness:  o.Of(st),
		Makespan: st.Makespan(),
		Flowtime: st.Flowtime(),
	}
}

// check reports the first way cp cannot be this run's state on in with
// a mesh of cells individuals: a negative counter, a round count its
// digests do not match, an alive island without a full population, a
// population or best schedule that is not a valid schedule of in, or no
// best at all (a checkpoint is written after a round, which always finds
// one).
func (cp *checkpoint) check(in *etc.Instance, cells int) error {
	if cp.Round < 0 || cp.TotalIters < 0 || cp.TotalEvals < 0 || len(cp.Digests) != cp.Round {
		return fmt.Errorf("round %d, %d iterations, %d evaluations, %d digests", cp.Round, cp.TotalIters, cp.TotalEvals, len(cp.Digests))
	}
	for i, pop := range cp.Pops {
		if pop == nil && !cp.Alive[i] {
			continue
		}
		if len(pop) != cells {
			return fmt.Errorf("island %d: population of %d, want %d", i, len(pop), cells)
		}
		for k, s := range pop {
			if err := schedule.Schedule(s).Validate(in); err != nil {
				return fmt.Errorf("island %d individual %d: %w", i, k, err)
			}
		}
	}
	if cp.BestSched == nil {
		return errors.New("no best schedule")
	}
	if err := schedule.Schedule(cp.BestSched).Validate(in); err != nil {
		return fmt.Errorf("best: %w", err)
	}
	return nil
}

// loadCheckpoint reads the configured checkpoint file and returns it only
// when decodeCheckpoint accepts it. A missing, unreadable, mismatched or
// invalid file is not an error — the run simply starts fresh.
func (c *Coordinator) loadCheckpoint(in *etc.Instance, seed uint64) (*checkpoint, bool) {
	if c.cfg.CheckpointPath == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.cfg.CheckpointPath)
	if err != nil {
		return nil, false
	}
	cp, err := decodeCheckpoint(data, in, seed, c.cfg.Islands, c.cfg.Workers, c.base.Width*c.base.Height)
	if err != nil {
		c.logf("dist: checkpoint %v, starting fresh", err)
		return nil, false
	}
	return cp, true
}

// decodeCheckpoint parses data and returns it only when it belongs to
// this exact run (seed, islands, workers) and holds valid schedules of
// in for meshes of cells individuals.
func decodeCheckpoint(data []byte, in *etc.Instance, seed uint64, islands, workers, cells int) (*checkpoint, error) {
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("unreadable: %w", err)
	}
	if cp.Version != checkpointVersion || cp.Seed != seed ||
		cp.Islands != islands || cp.Workers != workers ||
		len(cp.Alive) != islands || len(cp.Pops) != islands {
		return nil, errors.New("belongs to a different run")
	}
	if err := cp.check(in, cells); err != nil {
		return nil, fmt.Errorf("invalid: %w", err)
	}
	return &cp, nil
}

// saveCheckpoint atomically replaces the checkpoint file with the state
// after the just-finished round.
func (c *Coordinator) saveCheckpoint(seed uint64, rep *Report, pops [][]schedule.Schedule, alive []bool, best run.Result, totalIters int, totalEvals int64) error {
	cp := checkpoint{
		Version:    checkpointVersion,
		Seed:       seed,
		Islands:    c.cfg.Islands,
		Workers:    c.cfg.Workers,
		Round:      rep.Rounds,
		TotalIters: totalIters,
		TotalEvals: totalEvals,
		Alive:      alive,
		Digests:    rep.Digests,
		Deaths:     rep.Deaths,
	}
	cp.Pops = make([][][]int, len(pops))
	for i, pop := range pops {
		if pop == nil {
			continue
		}
		cp.Pops[i] = make([][]int, len(pop))
		for k, s := range pop {
			cp.Pops[i][k] = []int(s)
		}
	}
	if best.Best != nil {
		cp.BestSched = []int(best.Best)
		cp.BestFitness = best.Fitness
		cp.BestMakespan = best.Makespan
		cp.BestFlowtime = best.Flowtime
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		return err
	}
	return atomicfile.Write(c.cfg.CheckpointPath, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
