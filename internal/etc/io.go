package etc

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The on-disk format mirrors the original benchmark distribution: a header
// line "jobs machines" followed by jobs×machines ETC values in row-major
// order (one job's entries, machine by machine, then the next job's),
// whitespace separated. The format stays row-major whatever the
// in-memory layout: Write emits and Read parses the logical matrix, and
// Read transposes it into the machine-major storage once at the end. An
// optional "# name: ..." comment carries the instance name, and an
// optional trailing "ready:" line carries machine ready times (absent in
// the static benchmark).

// Write serialises the instance in the benchmark text format.
func Write(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	if in.Name != "" {
		fmt.Fprintf(bw, "# name: %s\n", in.Name)
	}
	fmt.Fprintf(bw, "%d %d\n", in.Jobs, in.Machs)
	for i := 0; i < in.Jobs; i++ {
		for j := 0; j < in.Machs; j++ {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%.6f", in.At(i, j))
		}
		bw.WriteByte('\n')
	}
	// The ready line is written when some value is non-zero in its
	// six-decimal form: a line of zeros reads back as no line at all, so
	// writing one would make Write(Read(Write(in))) differ from
	// Write(in).
	ready := []byte("ready:")
	anyReady := false
	for _, v := range in.Ready {
		start := len(ready) + 1
		ready = fmt.Appendf(ready, " %.6f", v)
		if x, _ := strconv.ParseFloat(string(ready[start:]), 64); x != 0 {
			anyReady = true
		}
	}
	if anyReady {
		bw.Write(ready)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Read parses an instance in the benchmark text format and finalises it.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	name := ""
	var jobs, machs int
	// Header: skip comments, first non-comment line is "jobs machs".
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("etc: missing header: %w", orEOF(sc.Err()))
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# name:"); ok {
				name = strings.TrimSpace(rest)
			}
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d", &jobs, &machs); err != nil {
			return nil, fmt.Errorf("etc: bad header %q: %v", line, err)
		}
		break
	}
	if err := CheckDims(jobs, machs); err != nil {
		return nil, err
	}
	// Values may be split across lines arbitrarily. The header only
	// bounds the matrix: it grows as values arrive, so an input never
	// makes Read allocate more than a small multiple of what it carries.
	need := jobs * machs
	vals := make([]float64, 0, min(need, 1<<12))
	for len(vals) < need {
		if !sc.Scan() {
			return nil, fmt.Errorf("etc: got %d of %d ETC values: %w", len(vals), need, orEOF(sc.Err()))
		}
		for _, f := range strings.Fields(sc.Text()) {
			if len(vals) >= need {
				return nil, fmt.Errorf("etc: too many ETC values")
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("etc: bad value %q at index %d: %v", f, len(vals), err)
			}
			if len(vals) == cap(vals) {
				grown := make([]float64, len(vals), min(need, 2*cap(vals)))
				copy(grown, vals)
				vals = grown
			}
			vals = append(vals, v)
		}
	}
	in := &Instance{Name: name, Jobs: jobs, Machs: machs, ETC: make([]float64, need), Ready: make([]float64, machs)}
	for i := 0; i < jobs; i++ {
		for j, v := range vals[i*machs : (i+1)*machs] {
			in.ETC[j*jobs+i] = v
		}
	}
	// Optional ready line.
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, "ready:")
		if !ok {
			return nil, fmt.Errorf("etc: unexpected trailing line %q", line)
		}
		fields := strings.Fields(rest)
		if len(fields) != machs {
			return nil, fmt.Errorf("etc: ready line has %d values, want %d", len(fields), machs)
		}
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("etc: bad ready value %q: %v", f, err)
			}
			in.Ready[j] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	in.Finalize()
	return in, nil
}

func orEOF(err error) error {
	if err == nil {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadFile loads an instance from path.
func ReadFile(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile stores an instance at path.
func WriteFile(path string, in *Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
