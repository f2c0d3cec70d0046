// Command gridd runs the online rolling-horizon scheduler daemon: a
// long-running service that keeps one live schedule per grid, admits
// streamed submissions in batch windows, and warm-starts local search
// from the live state instead of re-solving from scratch.
//
//	gridd -addr :8437                          # serve the HTTP API
//	gridd -addr :8437 -log gridd.log           # with a write-ahead event log
//	gridd -log gridd.log -fsync always         # durable acknowledgements
//	gridd -snapshot snap.json -log gridd.log   # restore + replay, then serve
//
// Replication (see the "Replication & failover" section of the README):
//
//	gridd -log p.log -replicate-listen :8438   # primary: ship the WAL to followers
//	gridd -log f.log -replica-of host:8438     # hot standby; POST /promote to take over
//
// gridd is only the server. Its load harness, crash and failover
// tortures and restart self-check are tests of internal/daemon
// (go test ./internal/daemon/); its measured workloads live in
// benchmark/ (bash benchmark/run.sh).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"gridcma/internal/daemon"
	"gridcma/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8437", "HTTP listen address")
		seed     = flag.Uint64("seed", 1, "grid seed (ETC noise, search streams)")
		machCap  = flag.Int("mach-cap", 64, "machine slot capacity (at most 1024)")
		jobCap   = flag.Int("job-cap", 4096, "initial job slot capacity")
		lsIters  = flag.Int("ls-iters", 5, "local search iterations per admission")
		lsMethod = flag.String("ls-method", "LMCTS", "local search method for admissions")
		window   = flag.Duration("window", 250*time.Millisecond, "admission ticker period (0 disables)")
		admitAt  = flag.Int("admit-pending", 256, "admit when this many jobs are pending (0 disables)")
		logPath  = flag.String("log", "", "write-ahead event log path")
		snapPath = flag.String("snapshot", "", "restore from this snapshot before serving")

		fsync      = flag.String("fsync", "never", "WAL fsync policy: always (sync per request ack), interval (background ticker), never")
		fsyncEvery = flag.Duration("fsync-every", 100*time.Millisecond, "sync period for -fsync interval")
		maxPending = flag.Int("max-pending", 0, "reject submissions with 429 beyond this many pending jobs (0 = unbounded)")
		maxBody    = flag.Int64("max-body", 1<<20, "request body cap in bytes (413 beyond it)")
		reqTimeout = flag.Duration("req-timeout", 30*time.Second, "per-request handler deadline (0 disables)")

		replListen = flag.String("replicate-listen", "", "serve WAL-shipping replication to followers on this TCP address (requires -log)")
		replicaOf  = flag.String("replica-of", "", "run as a hot standby pulling from this primary replication address")
		replID     = flag.String("replica-id", "", "follower identity reported to the primary (default: the listen address)")
		maxLag     = flag.Uint64("max-lag", 4096, "replica: /readyz flips to 503 replica-lag beyond this many events behind")
	)
	flag.Parse()

	gcfg := daemon.DefaultConfig()
	gcfg.Seed = *seed
	gcfg.MachCap = *machCap
	gcfg.JobCap = *jobCap
	gcfg.LSIters = *lsIters
	gcfg.LSMethod = *lsMethod
	scfg := daemon.ServerConfig{
		Grid:           gcfg,
		Window:         *window,
		AdmitPending:   *admitAt,
		LogPath:        *logPath,
		Fsync:          *fsync,
		FsyncEvery:     *fsyncEvery,
		MaxPending:     *maxPending,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *reqTimeout,
	}

	ropts := replOptions{
		Listen:  *replListen,
		Primary: *replicaOf,
		ID:      *replID,
		MaxLag:  *maxLag,
	}
	if err := serve(scfg, *addr, *snapPath, ropts); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridd:", err)
	os.Exit(1)
}

// buildDaemon constructs the daemon through the shared crash-recovery
// entry point: restore the snapshot when one exists, truncate a torn
// WAL tail, replay the surviving suffix. A log with no snapshot replays
// cold from the start, so re-serving an existing -log resumes instead
// of colliding with its sequence numbers.
func buildDaemon(cfg daemon.ServerConfig, snapPath string) (*daemon.Daemon, error) {
	g, info, err := daemon.RecoverGrid(cfg.Grid, snapPath, cfg.LogPath)
	if err != nil {
		return nil, err
	}
	if info.TornTail {
		fmt.Fprintf(os.Stderr, "gridd: truncated a torn WAL tail (crash signature)\n")
	}
	if info.FromSnapshot > 0 || info.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "gridd: recovered to seq %d (snapshot seq %d + %d replayed events)\n",
			g.Applied(), info.FromSnapshot, info.Replayed)
	}
	return daemon.NewDaemonWith(g, cfg)
}

// replOptions is the serve-path replication wiring: at most one of
// Listen (primary: ship the WAL) and Primary (follower: pull it) is
// set.
type replOptions struct {
	Listen  string // replication listener address (primary side)
	Primary string // primary's replication address (follower side)
	ID      string // follower identity (cursor key on the primary)
	MaxLag  uint64 // /readyz replica-lag threshold
}

func serve(cfg daemon.ServerConfig, addr, snapPath string, ropts replOptions) error {
	// Bind the listener before recovery and serve a swappable handler:
	// orchestrator probes get liveness (200 /healthz) the moment the
	// process is up, honest unreadiness (503 /readyz "recovering") while
	// the snapshot restores and the WAL replays, and the real API only
	// after the daemon exists — never a connection refusal window.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var handler atomic.Value
	handler.Store(daemon.RecoveringHandler())

	// The base context is cancelled at shutdown so in-flight handlers
	// observe it through r.Context(); ReadHeaderTimeout bounds how long
	// a client may dribble headers while holding a connection.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "gridd: listening on %s, recovering state\n", addr)

	if ropts.Listen != "" && ropts.Primary != "" {
		srv.Close()
		return fmt.Errorf("-replicate-listen and -replica-of are mutually exclusive (a node is primary or follower, not both)")
	}
	if ropts.Listen != "" && cfg.LogPath == "" {
		srv.Close()
		return fmt.Errorf("-replicate-listen requires -log: replication ships the write-ahead log")
	}

	d, err := buildDaemon(cfg, snapPath)
	if err != nil {
		srv.Close()
		return err
	}
	d.Start()

	// Primary side: a draining transport server hands cached WAL cursors
	// to followers; it shuts down alongside the HTTP listener.
	var replSrv *transport.Server
	if ropts.Listen != "" {
		rs, rerr := daemon.NewReplServer(d, daemon.ReplConfig{})
		if rerr != nil {
			srv.Close()
			d.Stop()
			return rerr
		}
		rln, rerr := net.Listen("tcp", ropts.Listen)
		if rerr != nil {
			srv.Close()
			d.Stop()
			return rerr
		}
		replSrv = transport.NewServer(rs)
		go replSrv.Serve(rln)
		fmt.Fprintf(os.Stderr, "gridd: replicating WAL to followers on %s\n", rln.Addr())
	}

	// Follower side: the pull loop demotes the daemon (writes 503 with a
	// pointer at the primary) until POST /promote flips it.
	var repl *daemon.Replicator
	if ropts.Primary != "" {
		id := ropts.ID
		if id == "" {
			id = addr
		}
		repl, err = daemon.NewReplicator(d, daemon.ReplicatorConfig{
			Primary: ropts.Primary,
			ID:      id,
			MaxLag:  ropts.MaxLag,
		})
		if err != nil {
			srv.Close()
			d.Stop()
			return err
		}
		go repl.Run()
		fmt.Fprintf(os.Stderr, "gridd: following %s as %q (term %d, applied %d)\n",
			ropts.Primary, id, d.Term(), d.AppliedSeq())
	}

	handler.Store(d.Handler())
	d.SetReady(true)

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "gridd: draining")
		shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		if replSrv != nil {
			replSrv.Shutdown(shutdownCtx) // let in-flight pulls finish
		}
		srv.Shutdown(shutdownCtx) // stop accepting, wait for in-flight
		cancel()                  // then cancel stragglers via base context
	}()
	fmt.Fprintf(os.Stderr, "gridd: serving on %s (fsync %s)\n", addr, cfg.Fsync)
	err = <-serveErr
	if repl != nil {
		repl.Stop()
	}
	if stopErr := d.Stop(); stopErr != nil {
		return stopErr
	}
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}
