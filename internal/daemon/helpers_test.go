package daemon

import (
	"context"
	"encoding/json"
	"io"
	"time"

	"gridcma/internal/retry"
)

// Test accessors of the daemon's state: no production caller needs them.

// FlushWAL makes every applied event visible to WAL readers.
func (d *Daemon) FlushWAL() error {
	_, _, err := d.flushApplied(0)
	return err
}

// ReplicaLag returns the follower's last observed event lag behind its
// primary (0 on a primary).
func (d *Daemon) ReplicaLag() uint64 { return d.replLag.Load() }

// WriteSnapshot writes the grid as one JSON document.
func (g *Grid) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g.Snapshot())
}

// WriteSnapshotFile atomically persists the grid's snapshot to path.
func (g *Grid) WriteSnapshotFile(path string) error {
	return SaveSnapshot(g.Snapshot(), path)
}

// permanent reports whether err is one the replicator's retry loop gives
// up on at once, instead of backing off and calling again.
func permanent(err error) bool {
	calls := 0
	retry.Policy{MaxAttempts: 2, Initial: time.Nanosecond}.Do(context.Background(), func(int) error {
		calls++
		return err
	})
	return calls == 1
}
