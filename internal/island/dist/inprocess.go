package dist

import (
	"context"
	"errors"
	"fmt"

	"gridcma/internal/cma"
	"gridcma/internal/etc"
	"gridcma/internal/island"
	"gridcma/internal/run"
	"gridcma/internal/transport"
)

// InProcess is the island model run in one process: the coordinator's
// round loop over one Worker pinned to the run's instance and base cMA,
// reached through one in-process client per island. One client per
// island runs the islands' segments in parallel, one goroutine each, and
// the one Worker shares its scratch pool among them. Calls carry no
// deadline, and checkpoints are off.
type InProcess struct {
	cfg   island.Config
	inner *cma.Scheduler
}

// NewInProcess validates cfg and builds the in-process island model.
func NewInProcess(cfg island.Config) (*InProcess, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := cma.New(cfg.Base)
	if err != nil {
		return nil, err
	}
	return &InProcess{cfg: cfg, inner: inner}, nil
}

// Run executes the island model on in within budget, calling obs after
// every round. The iteration budget counts each island's iterations (the
// islands advance in lockstep segments); a time budget bounds the whole
// ensemble and is checked at round boundaries. A cancelled run returns
// its best so far. Run panics on an unbounded budget, as the cMA does.
func (p *InProcess) Run(in *etc.Instance, budget run.Budget, seed uint64, obs run.Observer) run.Result {
	if !budget.Bounded() {
		panic("island: unbounded budget")
	}
	w := &Worker{pinned: in, inner: p.inner}
	cfg := Config{
		Islands:        p.cfg.Islands,
		MigrationEvery: p.cfg.MigrationEvery,
		Migrants:       p.cfg.Migrants,
		Workers:        p.cfg.Islands,
	}
	c, err := newCoordinator(cfg, p.cfg.Base, 0, func(int) (transport.Client, error) {
		return transport.NewLocal(w), nil
	})
	if err != nil {
		panic(err) // an in-process client cannot fail to start
	}
	defer c.Close()
	res, _, err := c.run(in, budget, seed, obs)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		panic(fmt.Sprintf("island: %v", err)) // no fault reaches an in-process worker
	}
	res.Algorithm = fmt.Sprintf("IslandCMA(%d)", p.cfg.Islands)
	return res
}
