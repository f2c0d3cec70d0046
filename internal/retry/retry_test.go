package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func fastPolicy() Policy {
	return Policy{Initial: time.Microsecond, Max: 10 * time.Microsecond, Jitter: -1}
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
	if After(nil, time.Second) != nil {
		t.Fatal("After(nil, d) != nil")
	}
}

func TestDoHonorsAfterDelay(t *testing.T) {
	// A server-advertised delay should govern the wait (capped at Max):
	// with a 5ms advertised wait and one retry the elapsed time must be
	// at least 5ms even though the policy backoff is microseconds.
	p := fastPolicy()
	p.Max = 50 * time.Millisecond
	calls := 0
	start := time.Now()
	err := p.Do(context.Background(), func(int) error {
		calls++
		if calls == 1 {
			return After(errors.New("throttled"), 5*time.Millisecond)
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("Do = %v after %d calls", err, calls)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("resumed after %v, want >= 5ms advertised wait", d)
	}
}

func TestDoCapsAfterDelayAtMax(t *testing.T) {
	// An advertised delay beyond Policy.Max must be clipped: a 10s
	// Retry-After with Max=1ms retries in ~1ms, not 10s.
	p := Policy{Initial: time.Microsecond, Max: time.Millisecond, Jitter: -1}
	calls := 0
	start := time.Now()
	err := p.Do(context.Background(), func(int) error {
		calls++
		if calls == 1 {
			return After(errors.New("throttled"), 10*time.Second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("waited %v, advertised delay not capped at Max", d)
	}
}

func TestDoContextCancelDuringBackoff(t *testing.T) {
	p := Policy{MaxAttempts: -1, Initial: time.Hour, Max: time.Hour, Jitter: -1}
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
	// White-box check of the schedule itself: doubling from Initial,
	// clamped at Max, unaffected by call outcomes.
	p := Policy{Initial: 10 * time.Millisecond, Max: 35 * time.Millisecond, Jitter: -1}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	backoff := p.initial()
	for i, w := range want {
		if backoff != w {
			t.Fatalf("backoff[%d] = %v, want %v", i, backoff, w)
		}
		backoff = time.Duration(float64(backoff) * p.multiplier())
		if backoff > p.max() {
			backoff = p.max()
		}
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	sample := func(seed uint64) []time.Duration {
		p := Policy{Initial: time.Second, Max: time.Hour, Jitter: 0.5, Seed: seed}
		jr := p.jitterSchedule(4)
		return jr
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

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"2", 2 * time.Second, true},
		{"-1", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
		{"3600", maxRetryAfterDate, true},
		{"3601", maxRetryAfterDate, true},
		{"9999999999", maxRetryAfterDate, true}, // overflowed to a negative wait before the cap
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestParseRetryAfterHTTPDate pins the HTTP-date form against a fixed
// clock: all three RFC 9110 formats, past dates (immediate retry),
// clock-skew clamping, and malformed near-dates.
func TestParseRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		in   string
		want time.Duration
		ok   bool
	}{
		{"rfc1123", "Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second, true},
		{"rfc850", "Saturday, 08-Aug-26 12:05:00 GMT", 5 * time.Minute, true},
		{"ansi-c", "Sat Aug  8 12:00:10 2026", 10 * time.Second, true},
		{"past date", "Sat, 08 Aug 2026 11:59:00 GMT", 0, true},
		{"far past", "Mon, 02 Jan 2006 15:04:05 GMT", 0, true},
		{"skew clamped", "Sun, 09 Aug 2026 12:00:00 GMT", maxRetryAfterDate, true},
		{"exactly at cap", "Sat, 08 Aug 2026 13:00:00 GMT", time.Hour, true},
		{"not a date", "next tuesday", 0, false},
		{"truncated date", "Sat, 08 Aug 2026", 0, false},
		{"wrong-zone date", "Sat, 08 Aug 2026 12:00:30 PST", 0, false},
		{"empty", "", 0, false},
	}
	for _, c := range cases {
		got, ok := parseRetryAfterAt(c.in, now)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: parseRetryAfterAt(%q) = (%v, %v), want (%v, %v)", c.name, c.in, got, ok, c.want, c.ok)
		}
	}
}

// FuzzParseRetryAfter: parseRetryAfterAt never panics, and whenever it
// reports ok the wait is neither negative nor beyond maxRetryAfterDate,
// whichever form the header took. The clock is fixed; the corpus is the
// headers the two tests above pin.
func FuzzParseRetryAfter(f *testing.F) {
	for _, h := range []string{"", "0", "2", "-1", "soon", "1.5", "9999999999",
		"Sat, 08 Aug 2026 12:00:30 GMT", "Saturday, 08-Aug-26 12:05:00 GMT", "Sat Aug  8 12:00:10 2026",
		"Sat, 08 Aug 2026 11:59:00 GMT", "Mon, 02 Jan 2006 15:04:05 GMT", "Sun, 09 Aug 2026 12:00:00 GMT",
		"Sat, 08 Aug 2026 13:00:00 GMT", "next tuesday", "Sat, 08 Aug 2026", "Sat, 08 Aug 2026 12:00:30 PST"} {
		f.Add(h)
	}
	now := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, h string) {
		d, ok := parseRetryAfterAt(h, now)
		if ok && (d < 0 || d > maxRetryAfterDate) {
			t.Fatalf("parseRetryAfterAt(%q) = %v, outside [0, %v]", h, d, maxRetryAfterDate)
		}
	})
}

func ExamplePolicy_Do() {
	calls := 0
	p := Policy{MaxAttempts: 5, Initial: time.Microsecond, Jitter: -1}
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
