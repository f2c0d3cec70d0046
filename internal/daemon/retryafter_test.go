package daemon

import (
	"net/http"
	"strconv"
	"testing"
	"time"
)

// The Retry-After header the load client honours when the daemon pushes
// back with 429.

// Load client waits: the default when a 429 names no delay, and the cap
// that keeps the driver in step with short admission windows.
const (
	loadDefaultWait = 100 * time.Millisecond
	loadMaxWait     = 250 * time.Millisecond
)

// backpressureWait is how long the load client waits before it retries a
// 429 carrying the given Retry-After header: the advertised delay, capped
// at loadMaxWait, or loadDefaultWait when the header names none.
func backpressureWait(header string) time.Duration {
	return backpressureWaitAt(header, time.Now())
}

// backpressureWaitAt is backpressureWait against an injected clock.
func backpressureWaitAt(header string, now time.Time) time.Duration {
	wait, ok := parseRetryAfterAt(header, now)
	if !ok || wait <= 0 {
		return loadDefaultWait
	}
	return min(wait, loadMaxWait)
}

// maxRetryAfterDate caps waits derived from Retry-After, in either form.
// A date far in the future is overwhelmingly clock skew or a
// misconfigured server rather than a genuine "come back in a week" —
// honouring it literally would park a client forever on bad input. The
// integer form gets the same cap, which also keeps a huge seconds count
// from overflowing time.Duration into a negative wait. The load client's
// loadMaxWait applies on top of this.
const maxRetryAfterDate = time.Hour

// parseRetryAfter parses a Retry-After header in either standard form:
// integer seconds, or an HTTP-date (RFC 1123 and the obsolete RFC 850 /
// ANSI C formats, per RFC 9110). A date in the past — the server wants
// an immediate retry, or clocks are skewed the other way — reports
// (0, true); a wait unreasonably far in the future, in either form, is
// clamped to maxRetryAfterDate. Malformed values report ok=false like an
// absent header, leaving the caller on its default wait.
func parseRetryAfter(header string) (time.Duration, bool) {
	return parseRetryAfterAt(header, time.Now())
}

// parseRetryAfterAt is parseRetryAfter against an injected clock.
func parseRetryAfterAt(header string, now time.Time) (time.Duration, bool) {
	if header == "" {
		return 0, false
	}
	if s, err := strconv.Atoi(header); err == nil {
		if s < 0 {
			return 0, false
		}
		if s > int(maxRetryAfterDate/time.Second) {
			return maxRetryAfterDate, true
		}
		return time.Duration(s) * time.Second, true
	}
	t, err := http.ParseTime(header)
	if err != nil {
		return 0, false
	}
	d := t.Sub(now)
	if d < 0 {
		return 0, true
	}
	if d > maxRetryAfterDate {
		return maxRetryAfterDate, true
	}
	return d, true
}

// TestBackpressureWaitHonorsRetryAfter: an advertised delay under the cap
// is the wait, and a header that is absent, zero or malformed leaves the
// default wait. The clock is fixed so an HTTP-date can name a delay
// shorter than a second.
func TestBackpressureWaitHonorsRetryAfter(t *testing.T) {
	date := time.Date(2026, time.August, 8, 12, 0, 30, 0, time.UTC)
	now := date.Add(-200 * time.Millisecond)
	for _, c := range []struct {
		header string
		want   time.Duration
	}{
		{date.Format(http.TimeFormat), 200 * time.Millisecond},
		{"", loadDefaultWait},
		{"0", loadDefaultWait},
		{"soon", loadDefaultWait},
	} {
		if got := backpressureWaitAt(c.header, now); got != c.want {
			t.Errorf("backpressureWaitAt(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestBackpressureWaitCapsRetryAfter: an advertised delay beyond
// loadMaxWait is cut to it however far off it is, in either header form.
func TestBackpressureWaitCapsRetryAfter(t *testing.T) {
	for _, header := range []string{
		"1",
		"9999999999",
		time.Now().Add(time.Hour).UTC().Format(http.TimeFormat),
	} {
		if got := backpressureWait(header); got != loadMaxWait {
			t.Errorf("backpressureWait(%q) = %v, want %v", header, got, loadMaxWait)
		}
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
		got, ok := parseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
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
