// Package island defines the coarse-grained structured memetic
// algorithm of the paper's §3.1 taxonomy: several cMA islands evolve in
// parallel and periodically exchange individuals over a unidirectional
// ring. The fine-grained (cellular) model is the paper's contribution;
// the island model covers the other branch of the structured-population
// design space and gives a multi-core scaling path on top of the
// sequential asynchronous engine.
//
// This package holds the model's configuration and its segment
// primitives (segment.go). One round loop runs it: the coordinator of
// internal/island/dist, over in-process workers for the library's
// island engine (dist.InProcess) and over TCP for islandd.
//
// Migration happens at segment boundaries: every MigrationEvery
// iterations each island exports its population, sends its best Migrants
// individuals to the next island on the ring (replacing that island's
// worst), and resumes from the merged population. Under an iteration
// budget results are deterministic in the seed: every island's RNG
// stream is derived from it, and goroutine scheduling cannot affect the
// outcome because migration is a full barrier. A time budget is checked at those barriers, so it ends the
// run after the round in which the time ran out.
package island

import (
	"fmt"

	"gridcma/internal/cma"
)

// Config parameterises the island model.
type Config struct {
	// Islands is the number of parallel cMA populations (ring nodes).
	Islands int
	// MigrationEvery is the segment length in cMA iterations between
	// exchanges.
	MigrationEvery int
	// Migrants is how many of an island's best individuals are copied to
	// its ring successor at each exchange.
	Migrants int
	// Base configures every island's cMA.
	Base cma.Config
}

// DefaultConfig returns 4 islands exchanging their 2 best individuals
// every 5 iterations on the paper-tuned cMA.
func DefaultConfig() Config {
	return Config{Islands: 4, MigrationEvery: 5, Migrants: 2, Base: cma.DefaultConfig()}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Islands < 2:
		return fmt.Errorf("island: need at least 2 islands, got %d", c.Islands)
	case c.MigrationEvery < 1:
		return fmt.Errorf("island: MigrationEvery %d", c.MigrationEvery)
	case c.Migrants < 1:
		return fmt.Errorf("island: Migrants %d", c.Migrants)
	case c.Migrants >= c.Base.Width*c.Base.Height:
		return fmt.Errorf("island: Migrants %d must be below the island population %d",
			c.Migrants, c.Base.Width*c.Base.Height)
	}
	return c.Base.Validate()
}
