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
// order, whitespace separated. An optional "# name: ..." comment carries
// the instance name, and an optional trailing "ready:" line carries machine
// ready times (absent in the static benchmark).

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
	anyReady := false
	for _, v := range in.Ready {
		if v != 0 {
			anyReady = true
			break
		}
	}
	if anyReady {
		bw.WriteString("ready:")
		for _, v := range in.Ready {
			fmt.Fprintf(bw, " %.6f", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Read parses an instance in the benchmark text format and finalises it.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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
	if err := checkDims(jobs, machs); err != nil {
		return nil, err
	}
	in := New(name, jobs, machs)
	// Values may be split across lines arbitrarily.
	idx := 0
	need := jobs * machs
	for idx < need {
		if !sc.Scan() {
			return nil, fmt.Errorf("etc: got %d of %d ETC values: %w", idx, need, orEOF(sc.Err()))
		}
		for _, f := range strings.Fields(sc.Text()) {
			if idx >= need {
				return nil, fmt.Errorf("etc: too many ETC values")
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("etc: bad value %q at index %d: %v", f, idx, err)
			}
			in.ETC[idx] = v
			idx++
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
