package transport

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"gridcma/internal/schedule"
)

// AppendPops appends the canonical JSON encoding of a population — an
// array of schedules, each an array of machine assignments — to dst and
// returns the extended slice. This is the dominant payload of every
// segment call (populations dwarf the header by orders of magnitude), so
// it is hand-rolled append-style like the WAL's record encoder: zero
// allocations once dst has capacity, pinned by BenchmarkMigrantEncode
// under the CI allocation guard.
func AppendPops(dst []byte, pops []schedule.Schedule) []byte {
	dst = append(dst, '[')
	for i, p := range pops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for k, m := range p {
			if k > 0 {
				dst = append(dst, ',')
			}
			switch {
			case uint(m) < 10: // the common machine ids skip strconv
				dst = append(dst, byte('0'+m))
			case uint(m) < 100:
				dst = append(dst, byte('0'+m/10), byte('0'+m%10))
			default:
				dst = strconv.AppendInt(dst, int64(m), 10)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// ParsePops decodes an AppendPops payload line in one pass, without
// reflection. It accepts exactly the grammar AppendPops emits:
//
//	pops  = "[" [ sched { "," sched } ] "]"
//	sched = "[" [ int { "," int } ] "]"
//	int   = [ "-" ] ( "0" | "1"…"9" { "0"…"9" } )   (must fit in int)
//
// with no whitespace; anything else is an error. Every accepted line is
// also valid JSON for [][]int with the same values (FuzzParsePops pins
// that). "[]" decodes to a nil population. The schedules share one flat
// backing array, each a full-capacity sub-slice, so appending to one
// cannot overwrite the next: two allocations per population, sized up
// front from the bracket and comma counts.
func ParsePops(line []byte) ([]schedule.Schedule, error) {
	n := len(line)
	if n < 2 || line[0] != '[' || line[n-1] != ']' {
		return nil, payloadErr(0, "want a bracketed list")
	}
	if n == 2 {
		return nil, nil
	}
	// A valid line holds count('[')-1 schedules and at most count(',')+1
	// ints (exactly that many when no schedule is empty).
	flat := make([]int, 0, bytes.Count(line, []byte{','})+1)
	pops := make([]schedule.Schedule, 0, bytes.Count(line, []byte{'['})-1)
	// Invariant at the top of each loop: i ≤ n-1, because line[n-1] is
	// the closing ']' and every token consumed so far ended before it.
	i := 1
	for {
		if line[i] != '[' {
			return nil, payloadErr(i, "want '['")
		}
		i++
		a := len(flat)
		if line[i] != ']' {
			for {
				v, w := smallInt(line, i)
				if w == 0 {
					v, w = parseInt(line[i:])
				}
				if w == 0 {
					return nil, payloadErr(i, "want an int")
				}
				flat = append(flat, v)
				i += w
				if line[i] != ',' {
					break
				}
				i++
			}
			if line[i] != ']' {
				return nil, payloadErr(i, "want ',' or ']'")
			}
		}
		b := len(flat)
		pops = append(pops, schedule.Schedule(flat[a:b:b]))
		i++
		switch {
		case i == n-1:
			return pops, nil
		case i == n || line[i] != ',':
			return nil, payloadErr(i, "want ',' or the closing ']'")
		}
		i++
	}
}

// smallInt reads a one- or two-digit int at line[i], the form machine
// ids take on instances of up to 100 machines, returning it and its
// width; width 0 leaves the int (or the error) to parseInt. line ends in
// ']', so a digit at i or i+1 is never the last byte.
func smallInt(line []byte, i int) (int, int) {
	d0 := line[i] - '0'
	if d0 > 9 {
		return 0, 0
	}
	d1 := line[i+1] - '0'
	if d1 > 9 {
		return int(d0), 1
	}
	if d0 == 0 || line[i+2]-'0' <= 9 {
		return 0, 0
	}
	return int(d0)*10 + int(d1), 2
}

// parseInt reads the int at the start of b, returning it and its width
// in bytes; width 0 means b does not start with a well-formed int (no
// digits, a leading zero, or out of int range).
func parseInt(b []byte) (int, int) {
	w := 0
	limit := uint64(math.MaxInt)
	if len(b) > 0 && b[0] == '-' {
		w = 1
		limit++
	}
	start := w
	var u uint64
	for w < len(b) && '0' <= b[w] && b[w] <= '9' {
		d := uint64(b[w] - '0')
		if u > (limit-d)/10 {
			return 0, 0
		}
		u = u*10 + d
		w++
	}
	if w == start || b[start] == '0' && w-start > 1 {
		return 0, 0
	}
	v := int(u) // -MinInt wraps to itself: the most negative int decodes exactly
	if start == 1 {
		v = -v
	}
	return v, w
}

func payloadErr(at int, msg string) error {
	return fmt.Errorf("transport: population payload: byte %d: %s", at, msg)
}
