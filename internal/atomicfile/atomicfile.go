// Package atomicfile replaces a file so that a crash at any point leaves
// either the old file or the new one, never a torn half. The daemon's
// snapshots and fencing term and the island coordinator's checkpoint are
// written through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what write produces: the bytes go to a temp
// file in path's directory, which is fsynced, closed and only then
// renamed over path, and the directory is fsynced so the rename itself
// is durable. The temp file is named "." + base(path) + "-*.tmp" and is
// removed when any step fails.
func Write(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}
