// Command gridd runs the online rolling-horizon scheduler daemon: a
// long-running service that keeps one live schedule per grid, admits
// streamed submissions in batch windows, and warm-starts LMCTS, the
// paper's tuned local search, from the live state instead of re-solving
// from scratch. -ls-iters sets its budget per admission.
//
//	gridd -addr :8437                          # serve the HTTP API
//	gridd -addr :8437 -log gridd.log           # with a write-ahead event log
//	gridd -log gridd.log -fsync always         # durable acknowledgements
//	gridd -snapshot snap.json -log gridd.log   # restore + replay, then serve
//	gridd -log gridd.log                       # the same from gridd.log.snap, if it exists
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
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is gridd with its arguments and output streams: it returns the
// exit code (0 after a clean drain, 1 on a runtime failure, 2 on a bad
// command line). Every flag is parsed and checked before the listener or
// any file opens. The one line announcing that the API serves goes to
// stdout; every other message goes to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8437", "HTTP listen address")
		seed     = fs.Uint64("seed", 1, "grid seed (ETC noise)")
		machCap  = fs.Int("mach-cap", 64, "machine slot capacity (at most 1024)")
		jobCap   = fs.Int("job-cap", 4096, "initial job slot capacity")
		lsIters  = fs.Int("ls-iters", 5, "LMCTS iterations per admission")
		window   = fs.Duration("window", 250*time.Millisecond, "admission ticker period (0 disables)")
		admitAt  = fs.Int("admit-pending", 256, "admit when this many jobs are pending (0 disables)")
		logPath  = fs.String("log", "", "write-ahead event log path")
		snapPath = fs.String("snapshot", "", "restore from this snapshot before serving (default: <log>.snap, where a bootstrapped follower keeps its snapshot)")

		fsync      = fs.String("fsync", "never", "WAL fsync policy: always (sync per request ack), interval (background ticker), never")
		fsyncEvery = fs.Duration("fsync-every", 100*time.Millisecond, "sync period for -fsync interval")
		maxPending = fs.Int("max-pending", 0, "reject submissions with 429 beyond this many pending jobs (0 = unbounded)")
		maxBody    = fs.Int64("max-body", 1<<20, "request body cap in bytes (413 beyond it)")
		reqTimeout = fs.Duration("req-timeout", 30*time.Second, "per-request handler deadline (0 disables)")

		replListen = fs.String("replicate-listen", "", "serve WAL-shipping replication to followers on this TCP address (requires -log)")
		replicaOf  = fs.String("replica-of", "", "run as a hot standby pulling from this primary replication address")
		replID     = fs.String("replica-id", "", "follower identity reported to the primary (default: the listen address)")
		maxLag     = fs.Uint64("max-lag", 4096, "replica: /readyz flips to 503 replica-lag beyond this many events behind")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	gcfg := daemon.DefaultConfig()
	gcfg.Seed = *seed
	gcfg.MachCap = *machCap
	gcfg.JobCap = *jobCap
	gcfg.LSIters = *lsIters
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

	var usage error
	switch {
	case fs.NArg() > 0:
		usage = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case ropts.Listen != "" && ropts.Primary != "":
		usage = errors.New("-replicate-listen and -replica-of are mutually exclusive (a node is primary or follower, not both)")
	case ropts.Listen != "" && scfg.LogPath == "":
		usage = errors.New("-replicate-listen requires -log: replication ships the write-ahead log")
	default:
		usage = scfg.Validate()
	}
	if usage != nil {
		fmt.Fprintln(stderr, "gridd:", usage)
		return 2
	}

	if err := serve(scfg, *addr, *snapPath, ropts, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "gridd:", err)
		return 1
	}
	return 0
}

// buildDaemon constructs the daemon through the shared crash-recovery
// entry point: restore the snapshot (-snapshot, else <log>.snap) when
// one exists, truncate a torn WAL tail, replay the surviving suffix. A
// log with no snapshot replays cold from the start, so re-serving an
// existing -log resumes instead of colliding with its sequence numbers.
func buildDaemon(cfg daemon.ServerConfig, snapPath string, stderr io.Writer) (*daemon.Daemon, error) {
	g, info, err := daemon.RecoverGrid(cfg.Grid, snapPath, cfg.LogPath)
	if err != nil {
		return nil, err
	}
	if info.TornTail {
		fmt.Fprintf(stderr, "gridd: truncated a torn WAL tail (crash signature)\n")
	}
	if info.FromSnapshot > 0 || info.Replayed > 0 {
		fmt.Fprintf(stderr, "gridd: recovered to seq %d (snapshot seq %d + %d replayed events)\n",
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

func serve(cfg daemon.ServerConfig, addr, snapPath string, ropts replOptions, stdout, stderr io.Writer) error {
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
	fmt.Fprintf(stderr, "gridd: listening on %s, recovering state\n", addr)

	d, err := buildDaemon(cfg, snapPath, stderr)
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
		fmt.Fprintf(stderr, "gridd: replicating WAL to followers on %s\n", rln.Addr())
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
		repl.Run()
		fmt.Fprintf(stderr, "gridd: following %s as %q (term %d, applied %d)\n",
			ropts.Primary, id, d.Term(), d.AppliedSeq())
	}

	handler.Store(d.Handler())
	d.SetReady(true)

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(stderr, "gridd: draining")
		shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		if replSrv != nil {
			replSrv.Shutdown(shutdownCtx) // let in-flight pulls finish
		}
		srv.Shutdown(shutdownCtx) // stop accepting, wait for in-flight
		cancel()                  // then cancel stragglers via base context
	}()
	fmt.Fprintf(stdout, "gridd: serving on %s (fsync %s)\n", addr, cfg.Fsync)
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
