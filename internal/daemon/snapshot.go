package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gridcma/internal/schedule"
)

// snapshotVersion guards the wire format; Restore rejects anything else.
// Version 2 embeds the set-hash digest (digest.go); the digest of a
// version-1 document cannot be verified, so it is refused too.
const snapshotVersion = 2

// SnapJob is one occupied job slot in a snapshot.
type SnapJob struct {
	Slot  int32   `json:"slot"`
	ID    uint64  `json:"id"`
	Base  float64 `json:"base"`
	State string  `json:"state"` // "pending" or "placed"
	// Mach is the job's current machine slot in the live state — for a
	// placed job its machine, for a pending job usually the parking slot,
	// but a job stranded by a departure with no replacement machine stays
	// physically on the departed slot until an admission can move it.
	Mach int `json:"mach"`
}

// SnapMach is one ever-used machine slot in a snapshot.
type SnapMach struct {
	Slot     int     `json:"slot"`
	ID       uint64  `json:"id"`
	Mult     float64 `json:"mult"`
	Alive    bool    `json:"alive"`
	Departed bool    `json:"departed,omitempty"`
}

// Snapshot is the complete externalised grid: applying the same event
// suffix to a restored snapshot reproduces the live grid's digest
// trajectory bit for bit. The ETC matrix is not stored — every cell is a
// pure function of (job id, machine id, seed) plus the slot states here,
// which is what keeps a million-job snapshot small.
type Snapshot struct {
	Version  int        `json:"version"`
	Config   Config     `json:"config"`
	Applied  uint64     `json:"applied"` // last applied event sequence number
	NextJob  uint64     `json:"next_job_id"`
	NextMach uint64     `json:"next_mach_id"`
	JobCap   int        `json:"job_cap"`
	Counters Counters   `json:"counters"`
	Jobs     []SnapJob  `json:"jobs"`
	Machs    []SnapMach `json:"machs"`
	Pending  []int32    `json:"pending,omitempty"`
	Free     []int32    `json:"free"`
	// ParkSeq and ParkKeys carry the parking-list order (grid.go: parkEps):
	// the key determines each parked slot's position in the parking
	// machine's job list, which the digest trajectory depends on.
	ParkSeq  uint64   `json:"park_seq"`
	ParkKeys []uint64 `json:"park_keys"`
	Digest   string   `json:"digest"`
}

// Snapshot externalises the grid. The result is self-verifying: Digest is
// the grid's state digest, the set hash over its slot, machine and list
// records (digest.go), and Restore recomputes and checks it.
func (g *Grid) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:  snapshotVersion,
		Config:   g.cfg,
		Applied:  g.applied,
		NextJob:  g.nextJobID,
		NextMach: g.nextMachID,
		JobCap:   len(g.jobs),
		Counters: g.counters,
		Pending:  append([]int32(nil), g.pending...),
		Free:     append([]int32(nil), g.free...),
		ParkSeq:  g.parkSeq,
		ParkKeys: append([]uint64(nil), g.parkKeys...),
		Digest:   g.Digest(),
	}
	for slot := range g.jobs {
		js := &g.jobs[slot]
		if js.state == slotFree {
			continue
		}
		state := "pending"
		if js.state == slotPlaced {
			state = "placed"
		}
		s.Jobs = append(s.Jobs, SnapJob{
			Slot:  int32(slot),
			ID:    js.id,
			Base:  js.base,
			State: state,
			Mach:  g.st.Assign(slot),
		})
	}
	for slot := range g.machs {
		ms := &g.machs[slot]
		if ms.id == 0 {
			continue
		}
		s.Machs = append(s.Machs, SnapMach{
			Slot:     slot,
			ID:       ms.id,
			Mult:     ms.mult,
			Alive:    ms.alive,
			Departed: ms.departed,
		})
	}
	return s
}

// WriteSnapshot writes the grid as one JSON document.
func (g *Grid) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g.Snapshot())
}

// Restore rebuilds a grid from a snapshot and verifies the stored digest
// against the rebuilt state — a restore that would diverge from the
// snapshotted grid fails loudly instead of drifting silently. The check
// folds every record from scratch, which also seeds the restored grid's
// digest cache: its later digests cost O(changed) like the live grid's.
//
// The ETC matrix is reconstructed from the deterministic value formula:
// occupied rows get real values on every alive column and on the row's
// own (possibly departed) machine slot, blockETC elsewhere. A live grid
// may still hold real values in cells a departed machine left behind,
// and stale ones in the rows of slots submitted or freed since its last
// admission (blockFreed, fillRows). The next admission writes those
// cells in both grids and neither reads them before, so cells the
// scheduler can observe — and therefore the digest trajectory — match
// bit for bit even where the raw matrices do not.
func Restore(s *Snapshot) (*Grid, error) {
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("daemon: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if s.JobCap < s.Config.JobCap {
		return nil, fmt.Errorf("daemon: snapshot job cap %d below config %d", s.JobCap, s.Config.JobCap)
	}
	// Every job slot's park key is in the document, so checking their
	// count before anything is allocated keeps a small document from
	// announcing a grid it does not carry.
	if len(s.ParkKeys) != s.JobCap {
		return nil, fmt.Errorf("daemon: snapshot carries %d park keys for %d job slots", len(s.ParkKeys), s.JobCap)
	}
	g, err := NewGrid(s.Config)
	if err != nil {
		return nil, err
	}
	g.applied = s.Applied
	g.nextJobID = s.NextJob
	g.nextMachID = s.NextMach
	g.counters = s.Counters
	if s.JobCap > len(g.jobs) {
		if err := checkCapacity(s.JobCap, g.cfg.MachCap); err != nil {
			return nil, err
		}
		g.inst = g.blankInstance(s.JobCap)
		g.jobs = make([]jobSlot, s.JobCap)
	}
	g.parkSeq = s.ParkSeq
	g.parkKeys = append(g.parkKeys[:0], s.ParkKeys...)
	for slot := 0; slot < s.JobCap; slot++ {
		g.inst.Set(slot, g.park(), g.parkVal(g.parkKeys[slot]))
	}
	for _, sm := range s.Machs {
		if sm.Slot < 0 || sm.Slot >= len(g.machs) {
			return nil, fmt.Errorf("daemon: machine slot %d out of range", sm.Slot)
		}
		g.machs[sm.Slot] = machSlot{id: sm.ID, mult: sm.Mult, alive: sm.Alive, departed: sm.Departed}
		if sm.Alive {
			g.machByID[sm.ID] = sm.Slot
		}
	}
	p := g.park()
	sched := g.parkedSchedule(s.JobCap)
	for _, sj := range s.Jobs {
		if sj.Slot < 0 || int(sj.Slot) >= len(g.jobs) {
			return nil, fmt.Errorf("daemon: job slot %d out of range", sj.Slot)
		}
		st := slotPending
		if sj.State == "placed" {
			st = slotPlaced
		}
		g.jobs[sj.Slot] = jobSlot{id: sj.ID, base: sj.Base, state: st}
		g.byID[sj.ID] = sj.Slot
		if sj.Mach < 0 || sj.Mach > p {
			return nil, fmt.Errorf("daemon: job %d machine slot %d out of range", sj.ID, sj.Mach)
		}
		sched[sj.Slot] = sj.Mach
		for m := 0; m < p; m++ {
			if ms := &g.machs[m]; (ms.alive || m == sj.Mach) && ms.id == 0 {
				return nil, fmt.Errorf("daemon: job %d on never-used machine slot %d", sj.ID, m)
			}
		}
		if sj.Mach != p {
			g.inst.Set(int(sj.Slot), p, blockETC)
		}
	}
	// Fill the jobs' rows column by column, the matrix's storage order.
	for m := 0; m < p; m++ {
		ms := &g.machs[m]
		for _, sj := range s.Jobs {
			if ms.alive || m == sj.Mach {
				g.inst.Set(int(sj.Slot), m, g.etcOf(sj.ID, sj.Base, ms))
			} else {
				g.inst.Set(int(sj.Slot), m, blockETC)
			}
		}
	}
	g.pending = append(g.pending[:0], s.Pending...)
	g.free = append(g.free[:0], s.Free...)
	g.st = schedule.NewState(g.inst, sched)
	g.st.SetScanExempt(p, true)
	if got := g.Digest(); got != s.Digest {
		return nil, fmt.Errorf("daemon: restored digest %s does not match snapshot digest %s", got, s.Digest)
	}
	// The digest covers the slot records but not the indexes built from
	// the document's entry lists: a repeated entry for one slot passes
	// the digest and leaves a stale index behind.
	if err := g.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("daemon: restored grid: %v", err)
	}
	return g, nil
}

// ReadSnapshot parses one JSON snapshot document and restores it.
func ReadSnapshot(r io.Reader) (*Grid, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("daemon: decoding snapshot: %v", err)
	}
	return Restore(&s)
}

// SaveSnapshot writes s to path atomically (writeFileAtomic), which is
// what lets restore trust a snapshot file that exists at all (its
// digest self-verification catches the rest).
func SaveSnapshot(s *Snapshot, path string) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(s)
	})
}

// writeFileAtomic replaces path with what write produces: the bytes go
// to a temp file in path's directory, which is fsynced, closed and only
// then renamed over path, and the directory is fsynced so the rename
// itself is durable. A crash at any point leaves either the old file or
// the new one, never a torn half.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
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

// WriteSnapshotFile atomically persists the grid's snapshot to path.
func (g *Grid) WriteSnapshotFile(path string) error {
	return SaveSnapshot(g.Snapshot(), path)
}

// LoadSnapshotFile restores a grid from a snapshot file written by
// WriteSnapshotFile (digest-verified). A missing file returns
// os.ErrNotExist, which restart logic treats as "replay the log from
// scratch".
func LoadSnapshotFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
