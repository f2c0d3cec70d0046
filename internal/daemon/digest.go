package daemon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// The state digest is a homomorphic set hash (AdHash, Bellare and
// Micciancio, EUROCRYPT 1997; LtHash, Lewi et al., 2019) over the grid's
// keyed records:
//
//   - one record per job slot: id, state, park key, base and assignment;
//   - one record per machine slot: id, mult, alive/departed flags and the
//     float bits of its completion time;
//   - one record per position of the free stack and the pending queue,
//     naming the slot there, so the order of both lists is covered.
//
// Each record's leaf is the SHA-256 of its encoding, key included, read as
// four 64-bit lanes; the set value is the lane-wise sum of all leaves
// modulo 2^64. Addition rather than XOR keeps two equal leaves from
// cancelling. The digest is the hex SHA-256 of the set value followed by
// the scalars: ids, applied, admits, park sequence, list lengths and the
// float bits of the state flowtime and of the parking column's
// completion, which moves with almost every event.
//
// Because the sum is a group operation, a changed record is folded in
// place: subtract its old leaf, add its new one. Digest therefore costs
// O(records changed since the previous call + MachCap), not O(state).

// lanes is a set-hash value: four 64-bit lanes, each summed modulo 2^64.
type lanes [4]uint64

func (a *lanes) add(b lanes) {
	a[0] += b[0]
	a[1] += b[1]
	a[2] += b[2]
	a[3] += b[3]
}

func (a *lanes) sub(b lanes) {
	a[0] -= b[0]
	a[1] -= b[1]
	a[2] -= b[2]
	a[3] -= b[3]
}

// Record tags: the first byte of every leaf encoding, so records of
// different kinds never share an encoding.
const (
	recJob     byte = 'j'
	recMach    byte = 'm'
	recFree    byte = 'f'
	recPending byte = 'p'
)

// leafOf hashes one record encoding into lanes.
func leafOf(enc []byte) lanes {
	h := sha256.Sum256(enc)
	return lanes{
		binary.LittleEndian.Uint64(h[0:]),
		binary.LittleEndian.Uint64(h[8:]),
		binary.LittleEndian.Uint64(h[16:]),
		binary.LittleEndian.Uint64(h[24:]),
	}
}

// jobLeaf is the leaf of job slot s with its current fields and
// assignment m: 40 bytes, one SHA-256 block.
func (g *Grid) jobLeaf(s, m int32) lanes {
	js := &g.jobs[s]
	var buf [40]byte
	b := append(buf[:0], recJob, js.state, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(s))
	b = binary.LittleEndian.AppendUint64(b, js.id)
	b = binary.LittleEndian.AppendUint64(b, g.parkKeys[s])
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(js.base))
	b = binary.LittleEndian.AppendUint64(b, uint64(m))
	return leafOf(b)
}

// machLeaf is the leaf of machine slot m: 32 bytes.
func (g *Grid) machLeaf(m int) lanes {
	ms := &g.machs[m]
	var flags byte
	if ms.alive {
		flags |= 1
	}
	if ms.departed {
		flags |= 2
	}
	var buf [32]byte
	b := append(buf[:0], recMach, flags, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(m))
	b = binary.LittleEndian.AppendUint64(b, ms.id)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ms.mult))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.st.Completion(m)))
	return leafOf(b)
}

// listLeaf is the leaf of position pos of a slot list (tag recFree or
// recPending) holding slot s.
func listLeaf(tag byte, pos int, s int32) lanes {
	var buf [12]byte
	b := append(buf[:0], tag, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(pos))
	b = binary.LittleEndian.AppendUint32(b, uint32(s))
	return leafOf(b)
}

// digestHex seals a set value with the grid's scalars: 112 bytes, two
// SHA-256 blocks.
func (g *Grid) digestHex(sum lanes) string {
	var buf [32 + 10*8]byte
	b := buf[:0]
	for _, v := range sum {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, v := range [...]uint64{
		g.nextJobID, g.nextMachID, g.applied, g.counters.Admits, g.parkSeq,
		uint64(len(g.jobs)), uint64(len(g.pending)), uint64(len(g.free)),
		math.Float64bits(g.st.Flowtime()), math.Float64bits(g.st.Completion(g.park())),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	h := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h[:])
	return string(out[:])
}

// setDigest caches the set value and what it needs to take a record's
// old leaf back out. The grid creates it at the first Digest call and
// drops it at grow, so a grid that never digests tracks nothing.
//
// Job leaves are not cached: a slot's old leaf is recomputed from its
// fields and its folded assignment (jobMach), which works because the
// grid retires a slot (touchJob) before a transition changes any field
// but the assignment, and the assignment alone is what local search
// changes behind the grid's back.
type setDigest struct {
	sum lanes

	jobMach  []int32 // assignment of each job slot as last folded, or queued
	jobDirty []int32 // retired slots to fold back in; at most jobCap

	epoch     uint64   // State.Epoch as last folded
	machLeaf  []lanes  // leaf of each machine slot as last folded
	machEpoch []uint64 // State.MachEpoch of each machine as last folded

	free, pending listFold
}

// listFold tracks the position records of one slot list.
type listFold struct {
	tag    byte
	folded []int32 // the list as last folded
	from   int     // lowest position changed since; at most the list's length
}

// touch records that positions from pos on may have changed.
func (l *listFold) touch(pos int) { l.from = min(l.from, pos) }

// fold re-hashes the positions from l.from on that differ from cur.
func (l *listFold) fold(sum *lanes, cur []int32) {
	for i := l.from; i < max(len(l.folded), len(cur)); i++ {
		old, now := i < len(l.folded), i < len(cur)
		if old && now && l.folded[i] == cur[i] {
			continue
		}
		if old {
			sum.sub(listLeaf(l.tag, i, l.folded[i]))
		}
		if now {
			sum.add(listLeaf(l.tag, i, cur[i]))
		}
	}
	l.folded = append(l.folded[:l.from], cur[l.from:]...)
	l.from = len(cur)
}

// newSetDigest folds every record from scratch: the O(jobCap) path taken
// at the first Digest call and after grow or Restore.
func (g *Grid) newSetDigest() *setDigest {
	d := &setDigest{
		jobMach:   make([]int32, len(g.jobs)),
		machLeaf:  make([]lanes, len(g.machs)),
		machEpoch: make([]uint64, len(g.machs)),
		free:      listFold{tag: recFree},
		pending:   listFold{tag: recPending},
		epoch:     g.st.Epoch(),
	}
	for s := range d.jobMach {
		d.jobMach[s] = int32(g.st.Assign(s))
		d.sum.add(g.jobLeaf(int32(s), d.jobMach[s]))
	}
	for m := range d.machLeaf {
		d.machEpoch[m] = g.st.MachEpoch(m)
		d.machLeaf[m] = g.machLeaf(m)
		d.sum.add(d.machLeaf[m])
	}
	d.free.fold(&d.sum, g.free)
	d.pending.fold(&d.sum, g.pending)
	return d
}

// update folds in every record changed since the previous call. A machine
// whose epoch — its content version — moved is re-hashed: every change to
// a machine's job list draws it a fresh version, so search moves move the
// versions of the machines they touch, and the grid's join, leave and
// departed reset call InvalidateMachine. An unchanged version means
// unchanged contents. The jobs of a re-hashed machine are scanned for
// ones that arrived since, which are retired: a job whose assignment
// changed sits on a machine whose version moved, because Move, Swap and
// SetScheduleDiff refresh both ends. The parking column, which holds no
// machine record, is not scanned. Only the grid's own transitions move
// jobs on and off it (parked and placed slots block each other's
// columns, so no search move crosses), and those transitions retire the
// slots they move.
func (d *setDigest) update(g *Grid) {
	// Every machine version move advances the state epoch, so an
	// unchanged state epoch (a submit, say) skips the machine scan.
	if e := g.st.Epoch(); e != d.epoch {
		d.epoch = e
		d.foldMachines(g)
	}
	for _, s := range d.jobDirty {
		d.jobMach[s] = int32(g.st.Assign(int(s)))
		d.sum.add(g.jobLeaf(s, d.jobMach[s]))
	}
	d.jobDirty = d.jobDirty[:0]
	d.free.fold(&d.sum, g.free)
	d.pending.fold(&d.sum, g.pending)
}

// foldMachines re-hashes the machines whose version moved and retires
// the jobs that arrived on them.
func (d *setDigest) foldMachines(g *Grid) {
	for m := range d.machLeaf {
		e := g.st.MachEpoch(m)
		if e == d.machEpoch[m] {
			continue
		}
		d.machEpoch[m] = e
		d.sum.sub(d.machLeaf[m])
		d.machLeaf[m] = g.machLeaf(m)
		d.sum.add(d.machLeaf[m])
		for _, s := range g.st.JobsOn(m) {
			if d.jobMach[s] != int32(m) {
				d.retire(g, s)
			}
		}
	}
}

// queued marks a retired slot in jobMach: no machine has that index, so
// a slot is never retired twice.
const queued = -1

// retire takes slot s's folded leaf out of the sum and queues the slot to
// be folded back in.
func (d *setDigest) retire(g *Grid, s int32) {
	if m := d.jobMach[s]; m != queued {
		d.sum.sub(g.jobLeaf(s, m))
		d.jobMach[s] = queued
		d.jobDirty = append(d.jobDirty, s)
	}
}

// touchJob retires job slot s. A transition calls it before changing the
// slot's id, state, base or park key: the old leaf is recomputed from
// those fields.
func (g *Grid) touchJob(s int32) {
	if g.dig != nil {
		g.dig.retire(g, s)
	}
}

// touchFree and touchPending mark the free stack or the pending queue
// changed from position pos on.
func (g *Grid) touchFree(pos int) {
	if g.dig != nil {
		g.dig.free.touch(pos)
	}
}

func (g *Grid) touchPending(pos int) {
	if g.dig != nil {
		g.dig.pending.touch(pos)
	}
}

// Digest returns the grid's state digest as hex: a set hash over every
// job slot, machine slot and list position, sealed with the scalars
// (see the top of digest.go). Two grids with equal digests are
// bit-identical as schedulers; the replay tests, the replication
// divergence check and the snapshot self-check compare digests.
//
// The first call folds every record; later calls re-hash only the records
// changed since, so a call costs O(changed + MachCap). Digest updates the
// grid's digest cache, so like every other method it needs exclusive
// access to the grid.
func (g *Grid) Digest() string {
	if g.dig == nil {
		g.dig = g.newSetDigest()
	} else {
		g.dig.update(g)
	}
	return g.digestHex(g.dig.sum)
}
