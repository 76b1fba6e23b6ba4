// Command fedserve is the federated-learning daemon: a long-running HTTP
// server multiplexing many concurrent FL jobs (internal/serve) over the
// simulation engines. Jobs are submitted as JSON, stream their round
// traces to disk as they run, and synchronous jobs survive daemon
// restarts bit-identically via per-round resume snapshots.
//
//	fedserve -dir /var/lib/fedserve -addr 127.0.0.1:8080
//	fedserve -addr 127.0.0.1:0 -addr-file serve.addr   # ephemeral port
//
// SIGINT/SIGTERM stop accepting jobs, interrupt running ones at their
// next round boundary (leaving them resumable) and exit; a later
// fedserve over the same -dir finishes them. A hard kill loses at most
// the round in flight, which the restart replays — resume state is
// written every round, checksummed, never over the last good copy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"fedsched/internal/serve"
)

func main() {
	var (
		dir        = flag.String("dir", "serve-state", "state directory (job configs, traces, resume snapshots)")
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		queueCap   = flag.Int("queue-cap", 16, "admission queue capacity; beyond it submissions get 429")
		maxRunning = flag.Int("max-running", 2, "max concurrently running jobs")
		laneBudget = flag.Int("lane-budget", 0, "shared worker-lane budget across jobs (0 = tensor lanes + 1)")
		traceCap   = flag.Int("trace-cap", 0, "per-job trace ring capacity in events (0 = 65536)")
		quiet      = flag.Bool("quiet", false, "suppress per-job log lines")
	)
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	s, err := serve.New(serve.Options{
		Dir: *dir, QueueCap: *queueCap, MaxRunning: *maxRunning,
		LaneBudget: *laneBudget, TraceCap: *traceCap, Logf: logf,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	if *addrFile != "" {
		// tmp+rename so a watcher never reads a half-written address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatalf("%v", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatalf("%v", err)
		}
	}

	hs := &http.Server{Handler: s.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logf("fedserve: shutting down (interrupting jobs at their round boundaries)")
		s.Close()
		hs.Shutdown(context.Background())
	}()

	logf("fedserve: listening on %s (state %s)", ln.Addr(), *dir)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "fedserve: "+format+"\n", args...)
	os.Exit(2)
}
