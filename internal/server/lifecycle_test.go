package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// gatedRemote is a one-slot peer that holds every job until gate
// closes, then simulates it in-process. As a manager's only worker it
// pins the first flight to "running" for exactly as long as a test
// needs, so everything submitted behind it stays queued.
func gatedRemote(gate <-chan struct{}) *remoteFunc {
	sim := simulatingRemote("gated", 1, nil)
	return &remoteFunc{name: "gated", slots: 1, run: func(ctx context.Context, spec JobSpec) (JobStatus, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
		return sim.run(ctx, spec)
	}}
}

// TestRestartNeverReissuesSettledIDs restarts a manager on the same
// cache after jobs ended every way a job can end, and checks the
// restarted manager issues none of their IDs again: a done job, a job
// canceled while queued, and a job canceled while its flight ran. The
// running cancel has the highest ID, so numbering past it relies on
// that cancel alone.
func TestRestartNeverReissuesSettledIDs(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "results.json")
	open := func(remotes ...Remote) *Manager {
		cache, err := sweep.OpenCache(cachePath)
		if err != nil {
			t.Fatal(err)
		}
		return NewManager(ManagerConfig{Workers: NoLocalWorkers, Remotes: remotes, QueueDepth: 8, Cache: cache})
	}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	m := open(gatedRemote(gate))

	running := submitOne(t, m, "running", tinyCfg(7400)) // job-000001
	waitState(t, m, running, StateRunning)
	queued := submitOne(t, m, "queued", tinyCfg(7401)) // job-000002
	if _, err := m.Cancel(operator, queued); err != nil {
		t.Fatal(err)
	}
	rider := submitOne(t, m, "rider", tinyCfg(7400)) // job-000003, attached to the running flight
	if st := waitState(t, m, rider, StateRunning); !st.Deduped {
		t.Fatal("rider did not attach to the running flight")
	}
	if _, err := m.Cancel(operator, rider); err != nil {
		t.Fatal(err)
	}
	release()
	waitState(t, m, running, StateDone)
	drainManager(t, m)

	m2 := open(simulatingRemote("peer", 1, nil))
	defer drainManager(t, m2)
	for _, id := range []string{queued, rider} {
		if e, ok := m2.journal.lookup(id); !ok || e.State != StateCanceled {
			t.Errorf("journal entry of canceled %s = %+v (found %v), want state canceled", id, e, ok)
		}
		if _, err := m2.Analysis(operator, id); err == nil {
			t.Errorf("analysis of canceled %s resolved, want an error", id)
		}
	}
	fresh := submitOne(t, m2, "fresh", tinyCfg(7402))
	for _, old := range []string{running, queued, rider} {
		var o, n uint64
		fmt.Sscanf(old, "job-%d", &o)
		fmt.Sscanf(fresh, "job-%d", &n)
		if n <= o {
			t.Errorf("restarted manager issued %s, at or below settled %s", fresh, old)
		}
	}
	waitState(t, m2, fresh, StateDone)
}

// TestPickStartWindowReleasesOnce ends a flight after a worker dequeued
// it but before the worker started it, and checks the tenant's running
// slot is freed exactly once. The test plays that worker itself, so the
// window is held open deterministically; a second release would free
// the slot of the tenant's next flight and break MaxConcurrent.
func TestPickStartWindowReleasesOnce(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "capped", Token: "tc", MaxConcurrent: 1},
		Tenant{Name: "other", Token: "to"},
	)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	m := NewManager(ManagerConfig{Workers: NoLocalWorkers, Remotes: []Remote{gatedRemote(gate)}, QueueDepth: 8, Tenants: reg})
	defer drainManager(t, m)
	defer release()

	blocker, err := m.Submit(Tenant{Name: "other"}, []JobSpec{{Label: "blocker", Config: tinyCfg(7500)}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning) // the manager's only worker is busy
	capped := Tenant{Name: "capped"}
	sts, err := m.Submit(capped, []JobSpec{{Label: "c1", Config: tinyCfg(7501)}, {Label: "c2", Config: tinyCfg(7502)}})
	if err != nil {
		t.Fatal(err)
	}
	running := func() int {
		for _, tm := range m.Metrics().Tenants {
			if tm.Name == "capped" {
				return tm.Running
			}
		}
		return 0
	}

	f1, _ := m.nextFlight() // c1: picked, not started
	if f1.label != "c1" || running() != 1 {
		t.Fatalf("picked %q with %d running, want c1 with 1", f1.label, running())
	}
	if _, err := m.Cancel(capped, sts[0].ID); err != nil {
		t.Fatal(err)
	}
	if got := running(); got != 0 {
		t.Fatalf("capped running = %d after its picked flight ended, want 0", got)
	}
	f2, _ := m.nextFlight() // c2 takes the freed slot
	if f2.label != "c2" {
		t.Fatalf("picked %q, want c2", f2.label)
	}
	if m.startFlight(f1) {
		t.Fatal("a flight that ended in the pick-start window was started")
	}
	if got := running(); got != 1 {
		t.Fatalf("capped running = %d with c2 picked, want 1 (the ended flight's slot was released twice)", got)
	}

	release()
	if !m.startFlight(f2) {
		t.Fatal("c2 was not started")
	}
	m.execFlight(f2)
	waitState(t, m, sts[1].ID, StateDone)
	waitState(t, m, blocker[0].ID, StateDone)
	if got := running(); got != 0 {
		t.Fatalf("capped running = %d after every flight ended, want 0", got)
	}
}

// TestPreemptionSparesAttachedFlight submits a high-priority batch that
// both attaches to a queued low-priority flight and needs room for a
// fresh one. The preemption must pick another victim: ending the flight
// the batch attaches to would leave the attaching job on a flight that
// never runs, terminal without ever being settled.
func TestPreemptionSparesAttachedFlight(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "batch", Token: "tb"},
		Tenant{Name: "urgent", Token: "tu", Priority: 2},
	)
	gate := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: NoLocalWorkers, Remotes: []Remote{gatedRemote(gate)}, QueueDepth: 2, Tenants: reg})
	defer drainManager(t, m)
	defer close(gate)

	batch := Tenant{Name: "batch"}
	blocker, err := m.Submit(batch, []JobSpec{{Label: "blocker", Config: tinyCfg(7600)}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning)
	older, err := m.Submit(batch, []JobSpec{{Label: "older", Config: tinyCfg(7601)}})
	if err != nil {
		t.Fatal(err)
	}
	newer, err := m.Submit(batch, []JobSpec{{Label: "newer", Config: tinyCfg(7602)}})
	if err != nil {
		t.Fatal(err)
	}
	// Newest-first preemption would pick "newer", the flight the batch
	// attaches to.
	urgent, err := m.Submit(Tenant{Name: "urgent"}, []JobSpec{{Config: tinyCfg(7602)}, {Config: tinyCfg(7603)}})
	if err != nil {
		t.Fatalf("priority submission: %v", err)
	}
	if st := urgent[0]; st.State != StateQueued || !st.Deduped {
		t.Fatalf("attaching job is %s (deduped %v), want queued on the spared flight", st.State, st.Deduped)
	}
	if st, _ := m.Job(operator, newer[0].ID); st.State != StateQueued {
		t.Fatalf("attached-to flight's job is %s, want queued", st.State)
	}
	if st, _ := m.Job(operator, older[0].ID); st.State != StateCanceled {
		t.Fatalf("older low-priority job is %s, want canceled (preempted)", st.State)
	}
}
