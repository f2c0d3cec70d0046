// Package chaos provides deterministic fault injection for the
// durability layer: writable file handles whose writes and syncs fail
// according to a seeded schedule, so crash recovery is tested against
// every byte offset a real crash could tear at instead of only the
// clean shutdowns a test harness naturally produces.
//
// The model is one fault per handle. A Crash loses every byte past the
// trigger offset and kills the handle — the bytes before the offset are
// exactly what a torn write leaves on disk. A ShortWrite persists the
// same prefix but reports the short count with an error, modelling a
// partial write the caller notices. ENOSPC rejects the triggering write
// wholesale (the file stays at a record boundary if the caller writes
// records). SyncFail lets writes through but fails the first Sync at or
// past the offset — the fsync-returned-EIO case, after which a careful
// caller must treat everything since the last good sync as unpersisted.
//
// Schedules are pure functions of (seed, index), so a torture run that
// finds a bug names the exact fault that triggered it and replays it.
//
// This is test support: only the daemon's crash torture (TestCrashTest*
// in internal/daemon) imports it, so no binary links it. The message
// faults of the distributed island engine's torture live with that
// torture, in internal/island/dist's test files.
package chaos

import (
	"errors"
	"fmt"
	"io"

	"gridcma/internal/rng"
)

// Kind enumerates the injected fault types.
type Kind int

const (
	// Crash: the triggering write persists only the bytes before the
	// offset; that write and every later operation fail with ErrCrashed.
	Crash Kind = iota
	// ShortWrite: the triggering write persists the prefix before the
	// offset and returns the short count with ErrShortWrite; the handle
	// stays usable (the caller decides whether a short write is fatal).
	ShortWrite
	// ENOSPC: the triggering write fails entirely with ErrNoSpace and
	// persists nothing; the handle stays usable.
	ENOSPC
	// SyncFail: writes are untouched; the first Sync at or past the
	// offset returns ErrSyncFailed (later Syncs succeed again).
	SyncFail
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case ShortWrite:
		return "short-write"
	case ENOSPC:
		return "enospc"
	case SyncFail:
		return "sync-fail"
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// The injected failures.
var (
	ErrCrashed    = errors.New("chaos: crashed")
	ErrShortWrite = errors.New("chaos: short write")
	ErrNoSpace    = errors.New("chaos: no space left on device")
	ErrSyncFailed = errors.New("chaos: fsync failed")
)

// Fault is one scheduled failure: Kind triggers when the handle's byte
// offset reaches At (for SyncFail, when a Sync is issued at offset ≥ At).
type Fault struct {
	Kind Kind  `json:"kind"`
	At   int64 `json:"at"`
}

func (f Fault) String() string { return fmt.Sprintf("%s@%d", f.Kind, f.At) }

// Backend is the slice of *os.File the injector needs.
type Backend interface {
	io.Writer
	Sync() error
	Close() error
}

// File wraps a Backend with one scheduled fault. It is not safe for
// concurrent use, matching the single-writer discipline of a WAL.
type File struct {
	b       Backend
	fault   Fault
	off     int64
	dead    bool
	tripped bool
}

// Wrap returns f's fault-injecting wrapper.
func Wrap(b Backend, fault Fault) *File {
	return &File{b: b, fault: fault}
}

// Offset returns the number of bytes successfully written so far.
func (c *File) Offset() int64 { return c.off }

// Tripped reports whether the fault has fired.
func (c *File) Tripped() bool { return c.tripped }

// Write passes p through unless it crosses the fault offset.
func (c *File) Write(p []byte) (int, error) {
	if c.dead {
		return 0, ErrCrashed
	}
	if !c.tripped && c.fault.Kind != SyncFail && c.off+int64(len(p)) > c.fault.At {
		c.tripped = true
		switch c.fault.Kind {
		case ENOSPC:
			return 0, ErrNoSpace
		case Crash, ShortWrite:
			keep := c.fault.At - c.off
			if keep < 0 {
				keep = 0
			}
			n, err := c.b.Write(p[:keep])
			c.off += int64(n)
			if err != nil {
				return n, err
			}
			if c.fault.Kind == Crash {
				c.dead = true
				return n, ErrCrashed
			}
			return n, ErrShortWrite
		}
	}
	n, err := c.b.Write(p)
	c.off += int64(n)
	return n, err
}

// Sync passes through unless a SyncFail fault is due (or the handle
// already crashed).
func (c *File) Sync() error {
	if c.dead {
		return ErrCrashed
	}
	if !c.tripped && c.fault.Kind == SyncFail && c.off >= c.fault.At {
		c.tripped = true
		return ErrSyncFailed
	}
	return c.b.Sync()
}

// Close closes the backend; it works even after a crash so the harness
// can release the real file descriptor.
func (c *File) Close() error { return c.b.Close() }

// Plan draws n faults deterministically from seed, with trigger offsets
// spread uniformly over [1, size) and kinds cycling with a bias toward
// torn writes (Crash and ShortWrite are the faults that tear records;
// ENOSPC and SyncFail land on cleaner boundaries but must be survived
// all the same).
func Plan(seed uint64, n int, size int64) []Fault {
	if size < 2 {
		size = 2
	}
	r := rng.New(seed ^ 0xc4a05f11)
	kinds := []Kind{Crash, ShortWrite, Crash, ENOSPC, Crash, ShortWrite, SyncFail}
	out := make([]Fault, n)
	for i := range out {
		out[i] = Fault{
			Kind: kinds[i%len(kinds)],
			At:   1 + int64(r.Intn(int(size-1))),
		}
	}
	return out
}
