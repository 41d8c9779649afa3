// Command simd serves the deterministic figure pipeline over HTTP: a
// long-running service clients POST scenarios at instead of shelling
// out to rtsim per run.
//
// Usage:
//
//	simd [-addr :8080] [-workers N] [-queue-depth N] [-budget-ms N]
//	     [-figure-workers N] [-cache-dir DIR]
//
// POST /v1/scenarios          submit a scenario: 202 + job JSON, or the
// result bytes directly with ?wait=1
// GET  /v1/jobs/{id}          poll job state
// GET  /v1/jobs/{id}/result   fetch result bytes when done
// GET  /v1/jobs/{id}/events   stream state transitions (SSE)
// GET  /v1/figures            list served scenario ids
// GET  /v1/stats              cache/admission counters
// GET  /healthz               liveness (503 while draining)
//
// A scenario is {"figure": "fig5", "scale": 0.05, "seed": 7} or a
// reference-machine continuation {"figure": "ref-shielded", "seed": 7,
// "run_for_ms": 20}. Results are content-addressed by the FNV-1a hash
// of the scenario's canonical encoding — the same hash family the
// reprocheck goldens pin — so a duplicate request is served from cache
// (response header X-Simd-Cache: hit) with bytes provably identical to
// a fresh run. Identical requests already in flight are coalesced
// (X-Simd-Cache: join) rather than run twice. Continuations warm-start
// from cached post-boot snapshot images; warm and cold runs are
// byte-identical, so warm starts are invisible in results.
//
// Admission is bounded: a full queue refuses with 429 + Retry-After, a
// request whose virtual-millisecond cost exceeds -budget-ms refuses
// with 422, and SIGTERM/SIGINT drains — new work gets 503 while queued
// and in-flight jobs run to completion before exit.
//
// On startup the bound address is printed as "simd listening on
// ADDR" so callers using -addr :0 (the e2e tests) can find the port.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/simd"
)

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers. Without it, a client that stops mid-header holds
// its connection, and a goroutine, open forever. It starts at the
// request's first byte, so idle keep-alive connections are unaffected.
const readHeaderTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the bound address is printed on startup)")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = all cores); never affects result bytes, only throughput")
	queueDepth := flag.Int("queue-depth", 0, "admission queue capacity (0 = 4x workers); a full queue refuses with 429 + Retry-After")
	budgetMS := flag.Int64("budget-ms", 0, "per-request cost budget in virtual milliseconds (0 = unlimited); oversized requests refuse with 422")
	figureWorkers := flag.Int("figure-workers", 1, "replication fan-out inside one figure run; never affects result bytes")
	cacheDir := flag.String("cache-dir", "", "write-through cache directory for results and boot images (empty = memory only)")
	flag.Parse()

	srv, err := simd.New(simd.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		BudgetVirtualMS: *budgetMS,
		FigureWorkers:   *figureWorkers,
		CacheDir:        *cacheDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
	// Catch signals before announcing the address: a client that reads
	// the line may send SIGTERM at once, and it must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	fmt.Printf("simd listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("simd: %v: draining\n", s)
		srv.Drain() // refuse new work, finish queued + in-flight jobs
		// Then let handlers flush their responses before the listener
		// goes away — waiters blocked on ?wait=1 see their bytes.
		_ = hs.Shutdown(context.Background())
		<-done
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "simd:", err)
			os.Exit(1)
		}
	}
}
