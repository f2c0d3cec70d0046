package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"gridcma/internal/eventlog"
	"gridcma/internal/retry"
	"gridcma/internal/transport"
)

// ErrDiverged is the replication tripwire: the follower applied the
// same event prefix as the primary and computed a different state
// digest. That is not lag — it is a broken determinism contract (or a
// corrupted ship), and the only safe move is to stop replicating and
// flag the node degraded rather than let two "replicas" drift apart.
var ErrDiverged = errors.New("daemon: replica diverged from primary (digest mismatch at identical applied prefix)")

// ReplicatorConfig parameterises a follower's pull loop.
type ReplicatorConfig struct {
	// Primary is the primary's replication listener address (dialed with
	// internal/transport) — ignored when Dial is set.
	Primary string
	// ID names this follower to the primary (cursor key). Defaults to
	// "follower"; give each follower of one primary a distinct ID.
	ID string
	// Dial overrides how the primary is reached; tests and the failover
	// torture inject in-process (and chaos-wrapped) clients here.
	Dial func() (transport.Client, error)
	// Batch caps events requested per pull (0 = 512).
	Batch int
	// Poll is the idle wait between pulls once caught up (0 = 50ms).
	Poll time.Duration
	// MaxLag is the /readyz "replica-lag" threshold in events
	// (0 = 4096).
	MaxLag uint64
	// OnApply, when set, observes every replicated event after it is
	// applied (outside the daemon lock); the bench uses it to timestamp
	// arrivals for lag percentiles.
	OnApply func(e eventlog.Event)
}

// replCallTimeout bounds each pull RPC of the pull loop, and the dial.
const replCallTimeout = 10 * time.Second

// Replicator drives a follower daemon: it pulls WAL batches from the
// primary, applies them verbatim, checks the primary's digest against
// its own after every batch that carries one, and can Promote the follower to primary
// with a bumped fencing term. Pull-based: the follower owns its
// position, so a restart resumes from its applied sequence number with
// no primary-side bookkeeping to recover.
type Replicator struct {
	d   *Daemon
	cfg ReplicatorConfig

	mu      sync.Mutex // guards client + Step; Run/Step/Promote serialise here
	client  transport.Client
	nextID  uint64
	decoded []eventlog.Event // Step's reused decode buffer

	ctx     context.Context // cancelled by Stop: ends Run's pulls and waits
	cancel  context.CancelFunc
	done    chan struct{}
	running atomic.Bool

	// Counters (observability).
	pulls      atomic.Uint64
	events     atomic.Uint64
	snapshots  atomic.Uint64
	reconnects atomic.Uint64
	rejects    atomic.Uint64
}

// NewReplicator demotes d to follower and returns its pull loop
// (not yet running: call Run, or Step for deterministic tests).
func NewReplicator(d *Daemon, cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Primary == "" && cfg.Dial == nil {
		return nil, errors.New("daemon: replicator needs a primary address or a Dial hook")
	}
	if cfg.ID == "" {
		cfg.ID = "follower"
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 512
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = 4096
	}
	r := &Replicator{
		d:    d,
		cfg:  cfg,
		done: make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	d.setFollower(r.Promote, cfg.MaxLag)
	return r, nil
}

func (r *Replicator) dial() (transport.Client, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial()
	}
	return transport.Dial(r.cfg.Primary, replCallTimeout)
}

// connectLocked ensures a live client, dialing once if there is none;
// r.mu held. Backing off between failed dials is the caller's: Run's.
func (r *Replicator) connectLocked() error {
	if r.client != nil {
		return nil
	}
	c, err := r.dial()
	if err != nil {
		r.reconnects.Add(1)
		return err
	}
	r.client = c
	return nil
}

func (r *Replicator) dropClientLocked() {
	if r.client != nil {
		r.client.Close()
		r.client = nil
	}
}

// call performs one replication RPC and returns its response payload.
func (r *Replicator) call(ctx context.Context, kind string, pull *ReplPull) ([]byte, error) {
	payload, err := json.Marshal(pull)
	if err != nil {
		return nil, retry.Permanent(err)
	}
	r.nextID++
	resp, err := r.client.Call(ctx, &transport.Request{ID: r.nextID, Kind: kind, Repl: payload})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Repl, nil
}

// Step performs exactly one pull round: connect if needed, pull one
// batch, apply it, commit, and verify the shipped digest, if any. It returns
// the number of events applied; 0 with a nil error means caught up.
// Step is the determinism lever for the failover torture — no timers,
// no goroutines, every side effect sequenced by the caller.
func (r *Replicator) Step(ctx context.Context) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(); err != nil {
		return 0, err
	}
	pull := &ReplPull{
		ID:    r.cfg.ID,
		Term:  r.d.Term(),
		After: r.d.AppliedSeq(),
		Max:   r.cfg.Batch,
	}
	r.pulls.Add(1)
	payload, err := r.call(ctx, transport.KindReplPull, pull)
	var batch *ReplBatch
	if err == nil {
		if batch, err = parseReplBatch(payload); err != nil {
			err = fmt.Errorf("daemon: replication response payload: %v", err)
		}
	}
	if err != nil {
		// Transport failure: the connection is suspect, drop it so the
		// next Step redials rather than reusing a socket in an unknown
		// framing state.
		r.dropClientLocked()
		return 0, err
	}
	if batch.Term > r.d.Term() {
		if err := r.d.adoptTerm(batch.Term); err != nil {
			return 0, retry.Permanent(err)
		}
	}
	if batch.Reject != "" {
		r.rejects.Add(1)
		switch batch.Reject {
		case RejectStaleTerm:
			// Term adopted above; the next pull carries it.
			return 0, fmt.Errorf("daemon: pull rejected: %s (term now %d)", batch.Reject, r.d.Term())
		case RejectAhead:
			// We hold events the primary never acked: irreconcilable
			// without operator intervention.
			r.d.degraded.Store(true)
			return 0, retry.Permanent(fmt.Errorf("daemon: pull rejected: %s (local %d > primary %d)",
				batch.Reject, pull.After, batch.Applied))
		default:
			return 0, fmt.Errorf("daemon: pull rejected: %s", batch.Reject)
		}
	}
	if batch.NeedSnapshot {
		if err := r.bootstrapLocked(ctx); err != nil {
			return 0, err
		}
		return 0, nil
	}
	// Each shipped record is decoded once, with the checks a WAL read
	// makes, before any is applied: a corrupt record fails the batch
	// with nothing of it in the grid or the WAL.
	events := r.decoded[:0]
	last := pull.After
	for _, line := range batch.Records {
		e, err := eventlog.ParseRecord(line, last)
		if err != nil {
			r.d.degraded.Store(true)
			return 0, retry.Permanent(fmt.Errorf("daemon: shipped record after seq %d: %w", last, err))
		}
		events = append(events, e)
		last = e.Seq
	}
	r.decoded = events
	for i, e := range events {
		if err := r.d.ApplyReplicated(e, batch.Records[i]); err != nil {
			r.d.degraded.Store(true)
			return 0, retry.Permanent(err)
		}
	}
	if len(events) > 0 {
		if err := r.d.CommitReplicated(); err != nil {
			return 0, retry.Permanent(err)
		}
		r.events.Add(uint64(len(events)))
		if r.cfg.OnApply != nil {
			for _, e := range events {
				r.cfg.OnApply(e)
			}
		}
	}
	applied := r.d.AppliedSeq()
	lag := uint64(0)
	if batch.Applied > applied {
		lag = batch.Applied - applied
	}
	r.d.replLag.Store(lag)
	if lag == 0 {
		r.d.replCaught.Store(true)
	}
	// Continuous divergence detection: whenever the primary stamped the
	// batch end with its digest and we sit exactly there, the digests
	// must agree bit for bit.
	if batch.Digest != "" && batch.DigestSeq == applied {
		if local := r.d.GridDigest(); local != batch.Digest {
			r.d.degraded.Store(true)
			return len(events), retry.Permanent(fmt.Errorf(
				"%w: seq %d primary %s local %s", ErrDiverged, applied, batch.Digest, local))
		}
	}
	return len(events), nil
}

// bootstrapLocked fetches the primary's snapshot, restores a grid from
// it (the restore self-verifies against the embedded digest), swaps it
// into the daemon and persists the snapshot file when configured.
func (r *Replicator) bootstrapLocked(ctx context.Context) error {
	pull := &ReplPull{ID: r.cfg.ID, Term: r.d.Term()}
	payload, err := r.call(ctx, transport.KindReplSnapshot, pull)
	var snap ReplSnap
	if err == nil {
		if err = json.Unmarshal(payload, &snap); err != nil {
			err = fmt.Errorf("daemon: replication response payload: %v", err)
		}
	}
	if err != nil {
		r.dropClientLocked()
		return err
	}
	if snap.Term > r.d.Term() {
		if err := r.d.adoptTerm(snap.Term); err != nil {
			return retry.Permanent(err)
		}
	}
	if snap.Reject != "" {
		r.rejects.Add(1)
		return fmt.Errorf("daemon: snapshot rejected: %s", snap.Reject)
	}
	if snap.Snapshot == nil {
		return errors.New("daemon: snapshot response carried no snapshot")
	}
	g, err := Restore(snap.Snapshot)
	if err != nil {
		return retry.Permanent(fmt.Errorf("daemon: restoring bootstrap snapshot: %w", err))
	}
	if err := r.d.ReplaceGrid(g); err != nil {
		return retry.Permanent(err)
	}
	// A follower with a WAL persists the bootstrap snapshot beside it, at
	// logSnapPath, so a restart can recover locally.
	if log := r.d.cfg.LogPath; log != "" {
		if err := SaveSnapshot(snap.Snapshot, logSnapPath(log)); err != nil {
			return fmt.Errorf("daemon: persisting bootstrap snapshot: %w", err)
		}
	}
	r.snapshots.Add(1)
	return nil
}

// Run starts the pull loop in its own goroutine: Step until stopped,
// sleeping Poll after a caught-up round and pulling again at once after a
// round that applied events. A failed round backs off through the retry
// policy's schedule, without bound, and a round that succeeds resets it.
// Divergence and other permanent errors latch the daemon degraded and end
// the loop — a replica that cannot trust its state must stop, not retry.
func (r *Replicator) Run() {
	if !r.running.CompareAndSwap(false, true) {
		return
	}
	h := fnv.New64a()
	h.Write([]byte(r.cfg.ID))
	policy := retry.Policy{MaxAttempts: -1, Seed: h.Sum64()}
	go func() {
		defer close(r.done)
		for {
			var n int
			err := policy.Do(r.ctx, func(int) error {
				ctx, cancel := context.WithTimeout(r.ctx, replCallTimeout)
				defer cancel()
				var err error
				n, err = r.Step(ctx)
				return err
			})
			if err != nil {
				// Stopped, or a permanent error: retrying cannot make
				// this replica trustworthy again.
				return
			}
			if n == 0 {
				select {
				case <-r.ctx.Done():
					return
				case <-time.After(r.cfg.Poll):
				}
			}
		}
	}()
}

// Stop ends the pull loop, cancelling a pull or wait in progress, and
// waits for it; safe to call repeatedly and without a prior Run.
func (r *Replicator) Stop() {
	r.cancel()
	if r.running.Load() {
		<-r.done
	}
	r.mu.Lock()
	r.dropClientLocked()
	r.mu.Unlock()
}

// Promote fails the follower over to primary: the pull loop stops, the
// term bumps past everything this node has seen (persisting before the
// role flips), and the daemon starts accepting writes. The returned
// term is the fence that locks the old primary out.
func (r *Replicator) Promote() (uint64, error) {
	r.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	newTerm := r.d.Term() + 1
	if err := r.d.promoteToPrimary(newTerm); err != nil {
		return 0, err
	}
	return newTerm, nil
}

// ReplStats snapshots the replicator's counters.
type ReplStats struct {
	Pulls      uint64 `json:"pulls"`
	Events     uint64 `json:"events"`
	Snapshots  uint64 `json:"snapshots"`
	Reconnects uint64 `json:"reconnects"`
	Rejects    uint64 `json:"rejects"`
}

// Stats returns the replicator's counters.
func (r *Replicator) Stats() ReplStats {
	return ReplStats{
		Pulls:      r.pulls.Load(),
		Events:     r.events.Load(),
		Snapshots:  r.snapshots.Load(),
		Reconnects: r.reconnects.Load(),
		Rejects:    r.rejects.Load(),
	}
}
