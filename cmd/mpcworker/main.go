// Command mpcworker is one worker process of the distributed MPC(ε)
// runtime (internal/dist). It listens for coordinator connections and
// serves each as an isolated session: receive columnar runs, ack
// round barriers, evaluate local joins, stream gathered views back.
//
// Usage:
//
//	mpcworker -listen :9001
//
// A pool is just N processes:
//
//	for port in 9001 9002 9003 9004; do mpcworker -listen :$port & done
//	mpcrun -family C3 -n 10000 -workers localhost:9001,localhost:9002,localhost:9003,localhost:9004
//
// One process serves any number of concurrent coordinator sessions
// (e.g. parallel mpcserve queries): every connection has its own
// store, dropped when the connection closes. Beside them the process
// keeps one bounded, read-only store of the scatter slices a
// coordinator asked it to retain, so a later query on the same dataset
// version attaches to them instead of receiving them again; it is lost
// with the process, and a coordinator re-sends what is missing. The
// process exits cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dist"
)

func main() {
	var (
		listen = flag.String("listen", ":9001", "TCP listen address")
		quiet  = flag.Bool("quiet", false, "suppress the startup line")
	)
	flag.Parse()
	if err := run(*listen, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "mpcworker:", err)
		os.Exit(1)
	}
}

// run listens and serves until a termination signal.
func run(listen string, quiet bool) error {
	if listen == "" {
		return fmt.Errorf("empty -listen address")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	if !quiet {
		// The resolved address matters with ":0" (tests, scripted pools
		// picking free ports).
		fmt.Printf("mpcworker listening on %s\n", ln.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return dist.Serve(ctx, ln)
}
