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

// Policy parameterises Do. The zero value is usable: 4 attempts, 50ms
// initial backoff doubling to a 2s cap, 20% jitter.
type Policy struct {
	// MaxAttempts bounds the total number of calls. 0 means the default
	// (4); a negative value retries without bound (the caller's context
	// is then the only way out).
	MaxAttempts int
	// Initial is the backoff before the second attempt (0 = 50ms).
	Initial time.Duration
	// Max caps every wait (0 = 2s).
	Max time.Duration
	// Multiplier grows the backoff between attempts (0 = 2).
	Multiplier float64
	// Jitter is the fraction of each wait drawn uniformly at random and
	// added on top, de-synchronising retry storms across clients. 0 means
	// the default 0.2; negative disables jitter entirely.
	Jitter float64
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

func (p Policy) initial() time.Duration {
	if p.Initial <= 0 {
		return 50 * time.Millisecond
	}
	return p.Initial
}

func (p Policy) max() time.Duration {
	if p.Max <= 0 {
		return 2 * time.Second
	}
	return p.Max
}

func (p Policy) multiplier() float64 {
	if p.Multiplier <= 0 {
		return 2
	}
	return p.Multiplier
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter == 0:
		return 0.2
	}
	return p.Jitter
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

// IsPermanent reports whether err (anywhere in its chain) was marked by
// Permanent. Callers running their own retry loops instead of Do use it
// to honour the same give-up signal.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// jitterSchedule returns the jittered waits the policy's seeded stream
// would produce for n consecutive one-second base waits; tests use it to
// pin that the stream is a pure function of Seed.
func (p Policy) jitterSchedule(n int) []time.Duration {
	jr := rng.New(p.Seed ^ 0xba110fba110f)
	jf := p.jitter()
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Second + time.Duration(jf*float64(time.Second)*jr.Float64())
	}
	return out
}

// Do calls f until it succeeds, returns a Permanent error, exhausts the
// attempt budget, or ctx is cancelled (including while waiting out a
// backoff). f receives the zero-based attempt index. The last error is
// returned, annotated with the attempt count when the budget ran out.
func (p Policy) Do(ctx context.Context, f func(attempt int) error) error {
	attempts := p.attempts()
	backoff := p.initial()
	maxWait := p.max()
	jf := p.jitter()
	var jrng *rng.Source
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
		wait := backoff
		backoff = time.Duration(float64(backoff) * p.multiplier())
		if backoff > maxWait {
			backoff = maxWait
		}
		if jf > 0 {
			if jrng == nil {
				jrng = rng.New(p.Seed ^ 0xba110fba110f)
			}
			wait += time.Duration(jf * float64(wait) * jrng.Float64())
		}
		if wait > maxWait {
			wait = maxWait
		}
		if wait <= 0 {
			continue
		}
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
