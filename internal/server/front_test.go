package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// refusingPeer runs a real peer daemon behind a wrapper that answers
// the first job submission with status and body instead of forwarding
// it. It returns the fleet backend for a front plus the peer's manager.
func refusingPeer(t *testing.T, status int, body string) (*client.Peer, *server.Manager) {
	t.Helper()
	m := server.NewManager(server.ManagerConfig{Workers: 1, QueueDepth: 16})
	h := server.New(m)
	var refused atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && refused.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprint(w, body)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
		ts.Close()
	})
	p := client.NewPeer(ts.URL, 1)
	p.PollInterval = 5 * time.Millisecond
	return p, m
}

// TestFrontPeerShedKeepsSlot: a peer that sheds one forwarded
// submission as deadline-unmeetable is loaded, not lost. The shed
// flight retries elsewhere (here: the pure front runs it itself) with
// no crash counted — PoisonThreshold 1 would quarantine on the first —
// and later flights still run on the peer.
func TestFrontPeerShedKeepsSlot(t *testing.T) {
	peer, peerM := refusingPeer(t, http.StatusServiceUnavailable,
		fmt.Sprintf(`{"error":"deadline unmeetable","code":%q}`, server.ErrCodeDeadlineUnmeetable))
	front := startFleetDaemon(t, server.ManagerConfig{
		Workers:         server.NoLocalWorkers,
		Remotes:         []server.Remote{peer},
		PoisonThreshold: 1,
	})
	c := fiClient(front, "")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := c.RunJob(ctx, server.JobSpec{Label: fmt.Sprintf("job-%d", seed), Config: fiTiny(seed)}); err != nil {
			t.Fatalf("job %d: %v", seed, err)
		}
	}
	met := front.m.Metrics()
	if met.RemoteSimulations < 1 {
		t.Errorf("front metrics: local=%d remote=%d — the shed retired the peer", met.SimulationsRun, met.RemoteSimulations)
	}
	if met.PoisonQuarantined != 0 {
		t.Errorf("PoisonQuarantined = %d: a shed counted as a crash", met.PoisonQuarantined)
	}
	if n := peerM.Metrics().SimulationsRun; n < 1 {
		t.Errorf("peer ran %d simulations after its shed, want >= 1", n)
	}
}

// TestFrontPeerRejectionFailsJobKeepsSlot: a peer that rejects a
// forwarded config with HTTP 400 judged the job, not itself: the job
// fails on the front, and the peer keeps serving later flights.
func TestFrontPeerRejectionFailsJobKeepsSlot(t *testing.T) {
	peer, peerM := refusingPeer(t, http.StatusBadRequest, `{"error":"invalid config"}`)
	front := startFleetDaemon(t, server.ManagerConfig{
		Workers: server.NoLocalWorkers,
		Remotes: []server.Remote{peer},
	})
	c := fiClient(front, "")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	_, err := c.RunJob(ctx, server.JobSpec{Label: "rejected", Config: fiTiny(11)})
	var remoteErr *server.RemoteJobError
	if !errors.As(err, &remoteErr) || remoteErr.State != server.StateFailed {
		t.Fatalf("rejected job: err = %v, want a failed job", err)
	}
	if _, err := c.RunJob(ctx, server.JobSpec{Label: "next", Config: fiTiny(12)}); err != nil {
		t.Fatal(err)
	}
	met := front.m.Metrics()
	if met.RemoteSimulations != 1 || met.SimulationsRun != 0 {
		t.Errorf("front metrics: local=%d remote=%d, want 0/1 (the peer kept its slot)", met.SimulationsRun, met.RemoteSimulations)
	}
	if n := peerM.Metrics().SimulationsRun; n != 1 {
		t.Errorf("peer ran %d simulations, want 1", n)
	}
}

// TestFrontPeerRejoins: a front's peer loses its listener mid-run and
// a fresh daemon binds the same address. The front's breaker for that
// peer opens on the first failed flight (which retries elsewhere), and
// after the default re-probe interval the front sends the new
// incarnation flights again.
func TestFrontPeerRejoins(t *testing.T) {
	other := startFleetDaemon(t, server.ManagerConfig{Workers: 1, QueueDepth: 16})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	first := server.NewManager(server.ManagerConfig{Workers: 1, QueueDepth: 16})
	srv1 := &http.Server{Handler: server.New(first)}
	go func() { _ = srv1.Serve(ln) }()
	var second *server.Manager
	var srv2 *http.Server
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = srv1.Close()
		_ = first.Drain(ctx)
		if srv2 != nil {
			_ = srv2.Close()
			_ = second.Drain(ctx)
		}
	})

	flaky := client.NewPeer("http://"+addr, 1)
	flaky.PollInterval = 5 * time.Millisecond
	steady := client.NewPeer(other.ts.URL, 1)
	steady.PollInterval = 5 * time.Millisecond
	front := startFleetDaemon(t, server.ManagerConfig{
		Workers:    1,
		QueueDepth: 16,
		Remotes:    []server.Remote{flaky, steady},
	})
	c := fiClient(front, "")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	run := func(seed uint64) {
		t.Helper()
		if _, err := c.RunJob(ctx, server.JobSpec{Label: fmt.Sprintf("job-%d", seed), Config: fiTiny(seed)}); err != nil {
			t.Fatalf("job %d: %v", seed, err)
		}
	}

	run(21)

	// The listener dies mid-run: flights keep completing, and the first
	// one sent to the vanished peer retries on another worker.
	_ = srv1.Close()
	start := time.Now()
	for seed := uint64(22); front.m.Metrics().JobsRequeued == 0; seed++ {
		if time.Since(start) > 20*time.Second {
			t.Fatal("the front never noticed the lost peer")
		}
		run(seed)
	}

	// A fresh daemon binds the same address.
	var ln2 net.Listener
	for i := 0; i < 200 && ln2 == nil; i++ {
		if ln2, err = net.Listen("tcp", addr); err != nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if ln2 == nil {
		t.Fatalf("could not rebind %s: %v", addr, err)
	}
	second = server.NewManager(server.ManagerConfig{Workers: 1, QueueDepth: 16})
	srv2 = &http.Server{Handler: server.New(second)}
	go func() { _ = srv2.Serve(ln2) }()

	// Keep the front busy until its re-probe reaches the new incarnation.
	start = time.Now()
	for seed := uint64(100); second.Metrics().SimulationsRun == 0; seed++ {
		if time.Since(start) > 20*time.Second {
			t.Fatal("the front never sent the restarted peer a flight")
		}
		run(seed)
		time.Sleep(20 * time.Millisecond)
	}
}
