package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func fastPolicy() Policy {
	return Policy{Initial: time.Microsecond, Max: 10 * time.Microsecond}
}

func TestDoSucceedsFirstTry(t *testing.T) {
	calls := 0
	err := fastPolicy().Do(context.Background(), func(int) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want nil after 1", err, calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := fastPolicy().Do(context.Background(), func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	base := errors.New("down")
	p := fastPolicy()
	p.MaxAttempts = 3
	err := p.Do(context.Background(), func(int) error {
		calls++
		return base
	})
	if calls != 3 {
		t.Fatalf("made %d calls, want 3", calls)
	}
	if !errors.Is(err, base) {
		t.Fatalf("Do = %v, want wrapped %v", err, base)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	calls := 0
	base := errors.New("bad request")
	err := fastPolicy().Do(context.Background(), func(int) error {
		calls++
		return Permanent(base)
	})
	if calls != 1 {
		t.Fatalf("made %d calls, want 1", calls)
	}
	if err != base {
		t.Fatalf("Do = %v, want the unwrapped original %v", err, base)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestDoContextCancelDuringBackoff(t *testing.T) {
	p := Policy{MaxAttempts: -1, Initial: time.Hour, Max: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(int) error { return errors.New("transient") })
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancel during backoff")
	}
}

func TestDoContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := fastPolicy().Do(ctx, func(int) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("Do = %v after %d calls, want Canceled after 0", err, calls)
	}
}

func TestDoUnlimitedAttempts(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = -1
	calls := 0
	err := p.Do(context.Background(), func(int) error {
		calls++
		if calls < 50 {
			return errors.New("still down")
		}
		return nil
	})
	if err != nil || calls != 50 {
		t.Fatalf("Do = %v after %d calls, want nil after 50", err, calls)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	// White-box check of the schedule Do waits on: the base doubles from
	// Initial, each wait adds up to 20% jitter, and Max caps both.
	p := Policy{Initial: 10 * time.Millisecond, Max: 35 * time.Millisecond}
	base := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	b := p.schedule()
	for i, lo := range base {
		hi := min(lo+lo/5, p.Max)
		if w := b.wait(); w < lo || w > hi {
			t.Fatalf("wait[%d] = %v, want within [%v, %v]", i, w, lo, hi)
		}
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	sample := func(seed uint64) []time.Duration {
		b := Policy{Initial: time.Second, Max: time.Hour, Seed: seed}.schedule()
		waits := make([]time.Duration, 4)
		for i := range waits {
			waits[i] = b.wait()
		}
		return waits
	}
	a, b := sample(1), sample(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sample(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

func ExamplePolicy_Do() {
	calls := 0
	p := Policy{MaxAttempts: 5, Initial: time.Microsecond}
	_ = p.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt < 2 {
			return errors.New("transient")
		}
		return nil
	})
	fmt.Println(calls)
	// Output: 3
}
