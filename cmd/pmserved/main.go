// Command pmserved runs the detection service: a long-lived server that
// accepts streaming PM traces over TCP from many concurrent clients and
// runs one detector session per connection (see internal/serve for the
// protocol). The HTTP listener serves /healthz, /metrics, /sessions and
// /report/<session>.
//
// Usage:
//
//	pmserved -addr 127.0.0.1:7487 -http 127.0.0.1:7488
//
// SIGINT/SIGTERM starts a graceful drain: no new sessions are accepted and
// active ones get -drain-timeout to finish before their connections are
// force-closed (which poisons those sessions rather than wedging shutdown).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmdebugger/internal/serve"
)

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, sigc, nil); err != nil {
		fmt.Fprintln(os.Stderr, "pmserved:", err)
		os.Exit(1)
	}
}

// run is the testable body of main: it blocks until a signal arrives on
// sigc, then drains. onReady, when non-nil, receives the started server
// (tests use it to learn the bound ephemeral addresses).
func run(args []string, logw io.Writer, sigc <-chan os.Signal, onReady func(*serve.Server)) error {
	fs := flag.NewFlagSet("pmserved", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7487", "trace listener address")
		httpAddr  = fs.String("http", "127.0.0.1:7488", "operational HTTP listener address ('' disables)")
		maxShards = fs.Int("maxshards", 0, "cap on per-session shard requests (0 = 16)")
		drainT    = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline before connections are force-closed")
	)
	fs.SetOutput(logw)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(logw, "", log.LstdFlags)
	srv := serve.New(serve.Config{
		Addr:      *addr,
		HTTPAddr:  *httpAddr,
		MaxShards: *maxShards,
		Logf:      func(format string, a ...any) { logger.Printf(format, a...) },
	})
	if err := srv.Start(); err != nil {
		return err
	}
	if onReady != nil {
		onReady(srv)
	}

	sig := <-sigc
	logger.Printf("pmserved: %v: draining (deadline %v)", sig, *drainT)
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain deadline exceeded; remaining sessions were force-closed: %w", err)
	}
	logger.Printf("pmserved: drained cleanly")
	return nil
}
