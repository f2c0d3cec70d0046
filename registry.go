package gridcma

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"gridcma/internal/cma"
	"gridcma/internal/ga"
	"gridcma/internal/island"
)

// Factory builds a fresh Scheduler. Factories registered with Register
// back the by-name constructor New.
type Factory func() (Scheduler, error)

var registry = struct {
	sync.RWMutex
	m map[string]Factory
}{m: map[string]Factory{}}

// Register adds a named Scheduler factory to the registry, making the
// algorithm available to New, the CLIs and the batch tooling. Names are
// case-insensitive. Registering an empty name, a nil factory or a taken
// name panics — registration is a program-startup concern, and a quiet
// failure would only surface as a confusing lookup miss much later.
func Register(name string, factory Factory) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		panic("gridcma: Register with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("gridcma: Register(%q) with nil factory", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[key]; dup {
		panic(fmt.Sprintf("gridcma: Register(%q) called twice", name))
	}
	registry.m[key] = factory
}

// New builds a registered Scheduler by name. Options become the
// scheduler's run defaults: New("cma", WithLambda(0.9)) yields a cMA
// whose every Run optimises λ = 0.9 unless a call overrides it.
func New(name string, opts ...RunOption) (Scheduler, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	registry.RLock()
	factory, ok := registry.m[key]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("gridcma: unknown algorithm %q (registered: %s)",
			name, strings.Join(Algorithms(), " "))
	}
	s, err := factory()
	if err != nil {
		return nil, err
	}
	if len(opts) > 0 {
		// Validate default options eagerly: a bad λ, worker count or
		// budget should fail here, not on the first Run deep inside a
		// batch.
		st := newRunSettings(opts...)
		if err := st.validate(key); err != nil {
			return nil, err
		}
		s = &withDefaults{Scheduler: s, defaults: opts}
	}
	return s, nil
}

// Algorithms lists every registered scheduler name, sorted.
func Algorithms() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// withDefaults layers construction-time options under each Run call.
type withDefaults struct {
	Scheduler
	defaults []RunOption
}

func (w *withDefaults) Run(ctx context.Context, in *Instance, opts ...RunOption) (Result, error) {
	merged := make([]RunOption, 0, len(w.defaults)+len(opts))
	merged = append(merged, w.defaults...)
	merged = append(merged, opts...)
	return w.Scheduler.Run(ctx, in, merged...)
}

// The built-in portfolio: the paper's cMA (sequential asynchronous,
// block-parallel asynchronous and synchronous), the island model, the
// three baseline GAs, the GSA hybrid, simulated annealing and tabu
// search. The registry entries delegate to the facade
// constructors so each algorithm is configured in exactly one place; the
// GA entries use the registry's kebab-case names rather than the
// variants' display names.
func init() {
	Register("cma", func() (Scheduler, error) { return NewCMA(cma.DefaultConfig()) })
	Register("cma-par", func() (Scheduler, error) {
		// The block-parallel asynchronous engine at the paper's tuned
		// configuration: deterministic in the seed for any worker count.
		cfg := cma.DefaultConfig()
		cfg.Workers = runtime.GOMAXPROCS(0)
		return NewCMA(cfg)
	})
	Register("cma-sync", func() (Scheduler, error) {
		cfg := cma.DefaultConfig()
		cfg.Synchronous = true
		cfg.Workers = runtime.GOMAXPROCS(0)
		return NewCMA(cfg)
	})
	Register("island", func() (Scheduler, error) { return NewIsland(island.DefaultConfig()) })
	Register("braun-ga", func() (Scheduler, error) { return newGAScheduler("braun-ga", ga.Braun) })
	Register("ss-ga", func() (Scheduler, error) { return newGAScheduler("ss-ga", ga.SteadyState) })
	Register("struggle-ga", func() (Scheduler, error) { return newGAScheduler("struggle-ga", ga.Struggle) })
	Register("gsa", func() (Scheduler, error) { return newGAScheduler("gsa", ga.GSA) })
	Register("sa", func() (Scheduler, error) { return NewSA() })
	Register("tabu", func() (Scheduler, error) { return NewTabu() })
	// A trajectory-changing variant lives under its own name, so the
	// entries above keep the frozen golden trajectories
	// testdata/golden.json pins. It stays only while it beats its parent
	// on both geomean makespan and geomean fitness, at equal CPU, on the
	// Braun suite.
	Register("sa-sweep", func() (Scheduler, error) { return NewSASweep() })
}
