// Command ccsimd is the simulation daemon: it serves the ChargeCache
// simulator as a JSON HTTP API so many clients share one worker pool,
// one dedup index, and one persistent result cache.
//
//	ccsimd -addr :8344 -workers 8 -results ccsimd-results.json
//
// Endpoints (see the README for the full reference and curl examples):
// POST /v1/jobs, GET /v1/jobs[/{id}], GET /v1/jobs/{id}/events (SSE),
// DELETE /v1/jobs/{id}, GET /v1/results/{key}, GET /v1/analysis/{id}
// (perf-analyzer report of a done job, resolvable after restarts and
// retention eviction through the durable job journal next to -results),
// GET /v1/analysis/{id}/stream (live SSE per-epoch feed with
// Last-Event-ID resume), GET /healthz, GET /metrics (including fleet
// perf-analyzer aggregates and per-worker phase attribution), and
// GET /dashboard — an embedded live HTML dashboard with campaign
// progress, throughput and live row-hit-rate sparklines.
//
// -peers b:8344,c:8344 makes this daemon front a fleet: each reachable
// peer contributes its advertised worker capacity to this daemon's
// pool, so clients keep talking to one address while jobs execute
// across every machine. Local workers and peers share one scheduler
// with internal/dispatch campaigns: a job whose peer dies mid-run
// retries on another worker while the peer sits behind its circuit
// breaker, a crashed-then-restarted peer rejoins on the breaker's
// re-probe, -hedge-after races a second worker against straggling
// flights, -poison-threshold quarantines jobs that keep killing
// workers, and result-cache/journal write failures degrade to
// memory-only storage (see README "Resilience") instead of failing
// jobs. -workers -1 turns the front into a pure dispatcher that
// runs nothing locally. -trace-root DIR advertises a directory shared
// with clients (and peers), enabling trace-file configs whose absolute
// paths live under it.
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops, queued
// jobs are canceled, running simulations drain within -grace.
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
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bits, so tests can boot the
// daemon on a scratch port and stop it through ctx.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8344", "HTTP listen address")
	workers := fs.Int("workers", 0, "concurrent local simulations (0 = GOMAXPROCS, -1 = none: pure dispatch front, needs -peers)")
	queue := fs.Int("queue", 64, "max queued simulations before submissions get HTTP 429")
	retain := fs.Int("retain", 1024, "finished jobs kept queryable; older ones are evicted (results stay in the cache)")
	results := fs.String("results", "ccsimd-results.json", "persistent JSON result cache; empty disables persistence")
	peers := fs.String("peers", "", "comma-separated peer ccsimd URLs: this daemon fronts them, dispatching queued jobs to their worker pools")
	peerToken := fs.String("peer-token", "", "bearer token sent to -peers daemons (defaults to $CCSIMD_PEER_TOKEN)")
	tenants := fs.String("tenants", "", "tenant registry JSON file ({\"tenants\":[{\"name\":...,\"token\":...,\"weight\":...,...}]}); enables bearer-token auth, per-tenant quotas and fair-share scheduling")
	traceRoot := fs.String("trace-root", "", "advertise DIR as a trace directory shared with clients: trace-file configs under it are accepted")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge a straggling flight onto another free worker after this long (0 = off; needs a second worker: local workers or another peer)")
	poison := fs.Int("poison-threshold", 0, "quarantine a job after its execution kills this many workers (0 = default 3, negative = never)")
	storageProbe := fs.Duration("storage-probe-interval", 0, "how often degraded (memory-only) storage re-probes the disk for automatic restore (0 = default 1s)")
	grace := fs.Duration("grace", time.Minute, "graceful-shutdown budget for draining running jobs")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintf(stdout, "ccsimd %s\n", version.String())
		return 0
	}
	if *workers < 0 && *workers != server.NoLocalWorkers {
		fmt.Fprintf(stderr, "ccsimd: -workers must be >= 0, or -1 for a pure dispatch front\n")
		return 2
	}
	if *workers == server.NoLocalWorkers && *peers == "" {
		fmt.Fprintf(stderr, "ccsimd: -workers -1 (no local execution) needs -peers to have any capacity\n")
		return 2
	}

	// Tenant registry: -tenants file plus CCSIMD_TENANT_TOKENS
	// ("name=token,name=token") overrides/additions, so quotas can live
	// in a checked-in file and credentials in the environment. Both
	// empty: open mode, the pre-gateway behavior.
	registry, err := server.LoadRegistry(*tenants, os.Getenv("CCSIMD_TENANT_TOKENS"))
	if err != nil {
		fmt.Fprintf(stderr, "ccsimd: %v\n", err)
		return 1
	}
	if registry != nil {
		fmt.Fprintf(stderr, "ccsimd: tenant registry: %d tenant(s), bearer auth required on /v1\n", len(registry.TenantNames()))
	}

	if *peerToken == "" {
		*peerToken = os.Getenv("CCSIMD_PEER_TOKEN")
	}
	var remotes []server.Remote
	for _, pr := range client.ProbePeers(ctx, dispatch.SplitEndpoints(*peers), *peerToken, 5*time.Second) {
		if pr.Err != nil {
			fmt.Fprintf(stderr, "ccsimd: WARNING: peer %s failed its health probe, skipping: %v\n", pr.Endpoint, pr.Err)
			continue
		}
		remotes = append(remotes, pr.Peer)
		fmt.Fprintf(stderr, "ccsimd: peer %s: %d slot(s), version %s\n", pr.Peer.Base(), pr.Peer.Slots(), pr.Health.Version)
	}
	if *workers == server.NoLocalWorkers && len(remotes) == 0 {
		fmt.Fprintf(stderr, "ccsimd: no local workers and no reachable peers; refusing to accept jobs that would never run\n")
		return 1
	}

	root := *traceRoot
	if root != "" {
		abs, err := filepath.Abs(root)
		if err != nil {
			fmt.Fprintf(stderr, "ccsimd: -trace-root: %v\n", err)
			return 1
		}
		root = abs
	}

	var cache *sweep.Cache
	if *results != "" {
		var err error
		cache, err = sweep.OpenCache(*results)
		if err != nil {
			fmt.Fprintf(stderr, "ccsimd: %v\n", err)
			return 1
		}
		if note := cache.RecoveryNote(); note != "" {
			fmt.Fprintf(stderr, "ccsimd: WARNING: %s\n", note)
		}
		fmt.Fprintf(stderr, "ccsimd: result cache %s: %d finished configs\n", *results, cache.Len())
	}

	manager := server.NewManager(server.ManagerConfig{
		Workers:              *workers,
		QueueDepth:           *queue,
		Cache:                cache,
		Retention:            *retain,
		Remotes:              remotes,
		Tenants:              registry,
		TraceRoot:            root,
		HedgeAfter:           *hedgeAfter,
		PoisonThreshold:      *poison,
		StorageProbeInterval: *storageProbe,
	})
	httpSrv := &http.Server{Handler: server.New(manager)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "ccsimd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "ccsimd %s listening on http://%s\n", version.String(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ccsimd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stderr, "ccsimd: shutting down, draining running jobs (budget %v)\n", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	// Drain first: it rejects new submissions, cancels queued jobs and
	// waits for running simulations, ending every job's SSE streams —
	// so the HTTP shutdown afterwards finds only idle connections.
	if err := manager.Drain(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "ccsimd: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "ccsimd: http shutdown: %v\n", err)
		code = 1
	}
	fmt.Fprintln(stderr, "ccsimd: bye")
	return code
}
