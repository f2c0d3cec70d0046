// Command islandd is a distributed-island worker: it serves segment and
// release RPCs (internal/transport JSONL over TCP) for a coordinator
// running the distributed island engine (internal/island/dist).
//
//	islandd -listen :7411
//
// Every request carries the instance generator spec, configuration, seed
// and population, and every reply is a pure function of its request, so
// a crashed islandd can be restarted (by the coordinator's supervisor, a
// process manager, or by hand) with zero recovery protocol: the next
// segment call re-sends everything. What the process keeps is a verified
// cache: a few materialised instances, and during a run a scratch pool
// and per island the live States its last segment ended with, which the
// next segment re-targets at the shipped population instead of
// rebuilding them. The release call that ends a run drops the pool and
// the States. A restart only costs that warm-up.
//
// SIGINT/SIGTERM drain rather than kill: the listener closes, idle
// connections drop, and in-flight segment calls get a grace period to
// finish — a coordinator never sees a half-written response frame from
// a politely stopped worker, only a closed connection it retries
// elsewhere.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridcma/internal/island/dist"
	"gridcma/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is islandd with its arguments and output streams: it returns the
// exit code (0 after a clean drain, 1 on a runtime failure, 2 on a bad
// command line). Every flag is parsed and checked before the listener
// opens.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("islandd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen = fs.String("listen", ":7411", "TCP address to serve segment RPCs on")
		drain  = fs.Duration("drain", 10*time.Second, "grace period for in-flight segment calls at shutdown")
		quiet  = fs.Bool("q", false, "suppress startup output")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "islandd: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *drain < 0:
		fmt.Fprintf(stderr, "islandd: -drain %s is negative\n", *drain)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "islandd:", err)
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "islandd: serving segment RPCs on %s\n", ln.Addr())
	}

	srv := transport.NewServer(dist.NewWorker())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(stderr, "islandd:", err)
			return 1
		}
	case s := <-sig:
		if !*quiet {
			fmt.Fprintf(stderr, "islandd: %s, draining in-flight segment calls (up to %s)\n", s, *drain)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "islandd: drain deadline expired, connections force-closed")
			return 1
		}
		if !*quiet {
			fmt.Fprintln(stderr, "islandd: drained cleanly")
		}
	}
	return 0
}
