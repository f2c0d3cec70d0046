// Package retry provides the context-aware retry policy shared by every
// client-side call path that must survive transient failure: the
// replication follower's pulls and the distributed island engine's RPC
// transport. One vocabulary covers both: capped attempts and jittered
// exponential backoff between them.
//
// Retry timing never feeds an algorithmic decision — callers' results are
// functions of what the calls eventually return, not of when — but the
// jitter stream is still seeded (internal/rng) so a torture run that
// wants reproducible schedules can have them.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gridcma/internal/rng"
)

// jitter is the fraction of each wait drawn uniformly at random and
// added on top, de-synchronising retry storms across clients.
const jitter = 0.2

// Policy parameterises Do. The zero value is usable: 4 attempts, 50ms
// initial backoff doubling to a 2s cap. Each wait grows by up to 20%
// seeded jitter, within the cap.
type Policy struct {
	// MaxAttempts bounds the total number of calls. 0 means the default
	// (4); a negative value retries without bound (the caller's context
	// is then the only way out).
	MaxAttempts int
	// Initial is the backoff before the second attempt (0 = 50ms).
	Initial time.Duration
	// Max caps every wait (0 = 2s).
	Max time.Duration
	// Seed drives the jitter stream; distinct callers should pass
	// distinct seeds so their retries do not march in lockstep.
	Seed uint64
}

func (p Policy) attempts() int {
	if p.MaxAttempts == 0 {
		return 4
	}
	return p.MaxAttempts
}

// schedule returns the policy's wait schedule, positioned before the
// first wait.
func (p Policy) schedule() backoff {
	b := backoff{next: p.Initial, max: p.Max, seed: p.Seed}
	if b.next <= 0 {
		b.next = 50 * time.Millisecond
	}
	if b.max <= 0 {
		b.max = 2 * time.Second
	}
	return b
}

// backoff is Do's wait schedule: the base wait doubles from Initial up to
// Max, and each wait adds jitter on top of its base, capped at Max.
type backoff struct {
	next, max time.Duration
	seed      uint64
	jr        *rng.Source // made at the first wait: a call that succeeds at once draws none
}

// wait returns the next wait and advances the schedule.
func (b *backoff) wait() time.Duration {
	w := b.next
	b.next = min(2*b.next, b.max)
	if b.jr == nil {
		b.jr = rng.New(b.seed ^ 0xba110fba110f)
	}
	w += time.Duration(jitter * float64(w) * b.jr.Float64())
	return min(w, b.max)
}

// permanentError stops Do: the wrapped error is not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable: Do returns the wrapped error
// immediately instead of backing off. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do calls f until it succeeds, returns a Permanent error, exhausts the
// attempt budget, or ctx is cancelled (including while waiting out a
// backoff). f receives the zero-based attempt index. The last error is
// returned, annotated with the attempt count when the budget ran out.
func (p Policy) Do(ctx context.Context, f func(attempt int) error) error {
	attempts := p.attempts()
	b := p.schedule()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f(attempt)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		if attempts > 0 && attempt+1 >= attempts {
			return fmt.Errorf("retry: %d attempts exhausted: %w", attempts, err)
		}
		wait := b.wait()
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
}
