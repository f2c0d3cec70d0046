package daemon

import (
	"encoding/json"
	"io"
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

// BootstrapSeq returns the applied sequence number of the last snapshot
// bootstrap (0 = never bootstrapped; the follower's log starts at 1).
func (r *Replicator) BootstrapSeq() uint64 { return r.bootSeq.Load() }

// WriteSnapshot writes the grid as one JSON document.
func (g *Grid) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g.Snapshot())
}

// WriteSnapshotFile atomically persists the grid's snapshot to path.
func (g *Grid) WriteSnapshotFile(path string) error {
	return SaveSnapshot(g.Snapshot(), path)
}
