package gridcma

import (
	"context"
	"sync"
	"testing"
)

// The batch seeds are part of every reproduced table: these answers pin
// the derivation bit for bit.
func TestTaskSeedKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		base                        uint64
		algorithm, instance, repeat int
		want                        uint64
	}{
		{0x0, 0, 0, 0, 0x80abe802ac1e182e},
		{0x0, 1, 0, 0, 0x3edfba9281257392},
		{0x0, 0, 1, 0, 0x882821205babc31f},
		{0x0, 0, 0, 1, 0x949f48c1e9eb8a36},
		{0x0, 2, 11, 9, 0xe7162e70a9c7ddd6},
		{0x1, 0, 0, 0, 0x35aa233257ed720d},
		{0x1, 1, 0, 0, 0x6d9fde6b434bad24},
		{0x1, 0, 1, 0, 0x8288928987992ed7},
		{0x1, 0, 0, 1, 0xc02a3f4371301f89},
		{0x1, 2, 11, 9, 0xd282792edc9e93b7},
		{0xdeadbeef, 0, 0, 0, 0x4ee7856f701aa94c},
		{0xdeadbeef, 1, 0, 0, 0xe40d308fb76d355c},
		{0xdeadbeef, 0, 1, 0, 0x6112a45fb5ac8791},
		{0xdeadbeef, 0, 0, 1, 0x3d018c7e53b6b54e},
		{0xdeadbeef, 2, 11, 9, 0xd474cd2a12e5cfb5},
	} {
		if got := taskSeed(c.base, c.algorithm, c.instance, c.repeat); got != c.want {
			t.Errorf("taskSeed(%#x, %d, %d, %d) = %#x, want %#x",
				c.base, c.algorithm, c.instance, c.repeat, got, c.want)
		}
	}
}

// seedRecorder records the settings each Run call resolves.
type seedRecorder struct {
	mu    sync.Mutex
	seeds []uint64
}

func (r *seedRecorder) Name() string { return "seed-recorder" }

func (r *seedRecorder) Run(ctx context.Context, in *Instance, opts ...RunOption) (Result, error) {
	st := newRunSettings()
	for _, o := range opts {
		o(&st)
	}
	r.mu.Lock()
	r.seeds = append(r.seeds, st.seed)
	r.mu.Unlock()
	return Result{Best: make(Schedule, in.Jobs)}, nil
}

// Contender i of a race runs with the seed at coordinates (i, 0, 0) of
// the seed option, overriding any seed among the options.
func TestRaceContenderSeeds(t *testing.T) {
	in, err := GenerateInstance(InstanceClass{}, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*seedRecorder{{}, {}, {}}
	algs := []Scheduler{recs[0], recs[1], recs[2]}
	if _, err := Race(context.Background(), in, algs, WithMaxIterations(1), WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if len(r.seeds) != 1 || r.seeds[0] != taskSeed(1, i, 0, 0) {
			t.Errorf("contender %d ran with seeds %#x, want [%#x]", i, r.seeds, taskSeed(1, i, 0, 0))
		}
	}
}
