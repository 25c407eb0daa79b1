package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"
)

// TestSelfHealingSoak is the self-healing acceptance soak: one
// campaign over a three-daemon fleet where every resilience mechanism
// fires at once, repeated across seeds to pin determinism.
//
//   - Daemon A completes jobs on a dead journal disk (degraded
//     memory-only storage, zero failed jobs, probe-and-restore after
//     the disk returns).
//   - Daemon B crashes mid-submission, its address refuses connections,
//     and a fresh incarnation binds the same address 120ms later. Two
//     trace-file units only B can run gate campaign completion on the
//     circuit-breaker re-probe actually rejoining it.
//   - Daemon C stalls every submission past the hedge threshold, so
//     straggler hedging fires and the first result wins.
//
// The campaign must return byte-identical results to a local
// sweep.Run, credit exactly one simulation per distinct config (hedges
// never double-count), and the restarted incarnation must execute
// units. `make soak` runs this under -race; go test -short trims the
// seed sweep.
func TestSelfHealingSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { soakOnce(t, seed) })
	}
}

func soakOnce(t *testing.T, seed uint64) {
	shared := t.TempDir()
	trace := writeTestTrace(t, shared)

	var jobs []sweep.Job
	for i := uint64(0); i < 12; i++ {
		jobs = append(jobs, sweep.Job{Label: fmt.Sprintf("plain-%d", i), Config: tinyCfg("lbm", seed*1000+i)})
	}
	for i := uint64(0); i < 2; i++ {
		cfg := tinyCfg("mcf", seed*1000+500+i)
		cfg.TraceFiles = []string{trace}
		jobs = append(jobs, sweep.Job{Label: fmt.Sprintf("trace-%d", i), Config: cfg})
	}
	distinct := distinctKeys(t, jobs)
	want, err := sweep.Run(context.Background(), jobs, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Daemon A: healthy transport, dead journal disk (a directory squats
	// on the journal's atomic-write temp path).
	aCachePath := filepath.Join(t.TempDir(), "results.json")
	aCache, err := sweep.OpenCache(aCachePath)
	if err != nil {
		t.Fatal(err)
	}
	journalBlock := aCachePath + ".jobs.tmp"
	if err := os.Mkdir(journalBlock, 0o755); err != nil {
		t.Fatal(err)
	}
	aM := server.NewManager(server.ManagerConfig{
		Workers: 2, QueueDepth: 32,
		Cache:                aCache,
		StorageProbeInterval: time.Millisecond,
	})
	aTS := httptest.NewServer(server.New(aM))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = aM.Drain(ctx)
		aTS.Close()
	})

	// Daemon B: real process-style crash and restart on the same address.
	bCfg := server.ManagerConfig{Workers: 2, QueueDepth: 32, TraceRoot: shared}
	b1 := server.NewManager(bCfg)
	h1 := server.New(b1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var crashed atomic.Bool
	var restartMu sync.Mutex
	var b2 *server.Manager
	var srv2 *http.Server
	restarted := make(chan struct{})
	srv1 := &http.Server{}
	srv1.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			if crashed.CompareAndSwap(false, true) {
				go func() {
					_ = srv1.Close() // listener and every connection die
					time.Sleep(120 * time.Millisecond)
					var ln2 net.Listener
					for i := 0; i < 200; i++ {
						var lerr error
						if ln2, lerr = net.Listen("tcp", addr); lerr == nil {
							break
						}
						time.Sleep(5 * time.Millisecond)
					}
					if ln2 == nil {
						t.Errorf("could not rebind %s for the restart", addr)
						return
					}
					restartMu.Lock()
					b2 = server.NewManager(bCfg)
					srv2 = &http.Server{Handler: server.New(b2)}
					restartMu.Unlock()
					go func() { _ = srv2.Serve(ln2) }()
					close(restarted)
				}()
			}
			panic(http.ErrAbortHandler) // the crashing process never answers
		}
		h1.ServeHTTP(w, r)
	})
	go func() { _ = srv1.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = b1.Drain(ctx)
		restartMu.Lock()
		if b2 != nil {
			_ = b2.Drain(ctx)
		}
		if srv2 != nil {
			_ = srv2.Close()
		}
		restartMu.Unlock()
		_ = srv1.Close()
	})

	// Daemon C: healthy but stalls every submission past the hedge
	// threshold — a permanent straggler.
	cM := server.NewManager(server.ManagerConfig{Workers: 2, QueueDepth: 32})
	cH := server.New(cM)
	cTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			time.Sleep(250 * time.Millisecond)
		}
		cH.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = cM.Drain(ctx)
		cTS.Close()
	})

	// Forensics for a red CI soak run.
	var stats Stats
	t.Cleanup(func() {
		dir := os.Getenv("CCSIMD_FAULT_ARTIFACTS")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "_")
		snap := map[string]any{"stats": stats, "a": aM.Metrics(), "c": cM.Metrics()}
		restartMu.Lock()
		if b2 != nil {
			snap["b-restarted"] = b2.Metrics()
		}
		restartMu.Unlock()
		if blob, err := json.MarshalIndent(snap, "", "  "); err == nil {
			_ = os.WriteFile(filepath.Join(dir, name+"-soak.json"), blob, 0o644)
		}
		t.Logf("fault artifacts written to %s", dir)
	})

	// The campaign context carries a deadline, so every submission
	// propagates it to the daemons (generous enough never to shed).
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got, err := Run(ctx, jobs, Options{
		Endpoints:         []string{aTS.URL, "http://" + addr, cTS.URL},
		PollInterval:      3 * time.Millisecond,
		ReprobeInterval:   40 * time.Millisecond,
		BreakerProbeLimit: -1, // B must be probed until it returns
		PoisonThreshold:   -1, // failed probes on B-only units are not poison
		HedgeAfter:        100 * time.Millisecond,
		Stats:             &stats,
	})
	if err != nil {
		t.Fatalf("soak campaign failed: %v", err)
	}
	if !crashed.Load() {
		t.Fatal("daemon B never crashed")
	}
	select {
	case <-restarted:
	default:
		t.Fatal("daemon B never restarted")
	}

	// Byte-identical results despite crash, restart, hedges, and a dead
	// journal disk.
	if gb, wb := mustJSON(t, got), mustJSON(t, want); string(gb) != string(wb) {
		t.Error("soak results are not byte-identical to the local sweep")
	}
	if stats.Rejoins < 1 {
		t.Errorf("stats.Rejoins = %d, want >= 1", stats.Rejoins)
	}
	if stats.HedgesLaunched < 1 {
		t.Errorf("stats.HedgesLaunched = %d, want >= 1", stats.HedgesLaunched)
	}
	if stats.Quarantined != 0 {
		t.Errorf("stats.Quarantined = %d, want 0", stats.Quarantined)
	}
	// One credited simulation per distinct config, no matter how many
	// hedges raced.
	if stats.Simulations != distinct {
		t.Errorf("stats.Simulations = %d, want %d", stats.Simulations, distinct)
	}

	// The restarted incarnation received and executed units (the trace
	// units can run nowhere else); the crashed one accepted nothing.
	restartMu.Lock()
	bM := b2
	restartMu.Unlock()
	bMetrics := bM.Metrics()
	if bMetrics.JobsSubmitted < 1 {
		t.Errorf("restarted daemon received %d submissions, want >= 1", bMetrics.JobsSubmitted)
	}
	if bMetrics.SimulationsRun < 2 {
		t.Errorf("restarted daemon ran %d simulations, want >= 2 (both trace units)", bMetrics.SimulationsRun)
	}
	if n := b1.Metrics().JobsSubmitted; n != 0 {
		t.Errorf("crashed incarnation accepted %d submissions", n)
	}

	// Daemon A ran the whole campaign on a dead journal disk: degraded,
	// but zero failed jobs. (Journal writes land asynchronously after
	// job completion, hence the poll.)
	var aMetrics server.Metrics
	deadline := time.Now().Add(10 * time.Second)
	for {
		aMetrics = aM.Metrics()
		if aMetrics.Storage != nil && aMetrics.Storage.JournalDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon A never reported a degraded journal: %+v", aMetrics.Storage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !aMetrics.StorageDegraded {
		t.Error("daemon A StorageDegraded flag not set")
	}
	if aMetrics.JobsFailed != 0 {
		t.Errorf("daemon A failed %d jobs while degraded, want 0", aMetrics.JobsFailed)
	}

	// The disk returns: the next journaled completion probes, restores
	// the full snapshot, and the degraded flag clears.
	if err := os.Remove(journalBlock); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let the probe window lapse
	sts, err := aM.Submit(server.Tenant{}, []server.JobSpec{{Label: "restore-probe", Config: tinyCfg("lbm", seed*1000+900)}})
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		st, err := aM.Job(server.Tenant{}, sts[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		aMetrics = aM.Metrics()
		if st.State.Terminal() && aMetrics.Storage != nil && !aMetrics.Storage.JournalDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon A journal never recovered: %+v", aMetrics.Storage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if aMetrics.Storage.JournalRestores < 1 {
		t.Errorf("journal restores = %d, want >= 1", aMetrics.Storage.JournalRestores)
	}
	if _, err := os.Stat(aCachePath + ".jobs"); err != nil {
		t.Errorf("restored journal file missing: %v", err)
	}
}
