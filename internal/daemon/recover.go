package daemon

import (
	"errors"
	"fmt"
	"os"

	"gridcma/internal/eventlog"
)

// RecoverInfo describes what a crash recovery found and did.
type RecoverInfo struct {
	// FromSnapshot is the snapshot's applied sequence number, 0 when the
	// grid was rebuilt from the log alone.
	FromSnapshot uint64 `json:"from_snapshot"`
	// Replayed counts the log events applied on top.
	Replayed int `json:"replayed"`
	// TornTail reports that the log ended in a torn record which was
	// truncated away (the crash signature of an in-flight write).
	TornTail bool `json:"torn_tail,omitempty"`
}

// ReplayFile applies a WAL file's events to g, truncating a torn tail
// in place first. Events at or below g.Applied() are skipped, so the
// same call serves both cold replay (fresh grid, whole log) and warm
// replay (restored snapshot, log suffix). A missing file is an empty
// log. Returns the number of events applied and whether a torn tail was
// truncated.
func ReplayFile(g *Grid, path string) (int, bool, error) {
	events, torn, err := eventlog.Recover(path)
	if err != nil {
		return 0, torn, err
	}
	n := 0
	for _, e := range events {
		if e.Seq <= g.Applied() {
			continue
		}
		if err := g.Apply(e); err != nil {
			return n, torn, fmt.Errorf("daemon: replaying event %d: %w", e.Seq, err)
		}
		n++
	}
	return n, torn, nil
}

// RecoverGrid rebuilds a grid from its durable artifacts: the snapshot
// at snapPath (when the file exists — its digest self-verifies) plus
// the WAL at logPath, whose torn tail, if any, is truncated before
// replay. An empty snapPath with a logPath means logSnapPath(logPath),
// where a bootstrapped follower keeps its snapshot. Either path may be
// empty or missing; with both absent the result is a fresh grid. This
// is the one restart entry point — the daemon binary and the
// crash-torture harness recover through the same code so the torture
// run proves the path the operator relies on.
func RecoverGrid(cfg Config, snapPath, logPath string) (*Grid, RecoverInfo, error) {
	var info RecoverInfo
	var g *Grid
	if snapPath == "" && logPath != "" {
		snapPath = logSnapPath(logPath)
	}
	if snapPath != "" {
		sg, err := LoadSnapshotFile(snapPath)
		switch {
		case err == nil:
			g = sg
			info.FromSnapshot = g.Applied()
		case errors.Is(err, os.ErrNotExist):
			// Cold start: fall through to a log-only rebuild.
		default:
			return nil, info, fmt.Errorf("daemon: loading snapshot %s: %w", snapPath, err)
		}
	}
	if g == nil {
		fresh, err := NewGrid(cfg)
		if err != nil {
			return nil, info, err
		}
		g = fresh
	}
	if logPath != "" {
		n, torn, err := ReplayFile(g, logPath)
		info.Replayed, info.TornTail = n, torn
		if err != nil {
			return nil, info, err
		}
	}
	return g, info, nil
}

// logSnapPath is the snapshot beside the WAL at logPath: a follower
// persists its bootstrap snapshot there, and RecoverGrid restores from it
// when no other snapshot is named.
func logSnapPath(logPath string) string { return logPath + ".snap" }
