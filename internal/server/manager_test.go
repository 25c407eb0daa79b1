package server

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// tinyCfg is a fast (~2ms) simulation differentiated by seed.
func tinyCfg(seed uint64) sim.Config {
	cfg := sim.DefaultConfig("lbm")
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 20_000
	cfg.Seed = seed
	return cfg
}

// blockerCfg is a simulation long enough (hundreds of ms) to hold a
// worker busy while a test stages queued jobs behind it. Sized for the
// event-driven engine's throughput — if engine speedups shrink it below
// a few hundred ms, staging races on single-CPU runners come back.
func blockerCfg() sim.Config {
	cfg := sim.DefaultConfig("mcf")
	cfg.WarmupInstructions = 10_000
	cfg.RunInstructions = 32_000_000
	cfg.Seed = 99
	return cfg
}

// operator sees every job in open and registry mode alike, the caller
// the tests use to inspect manager state.
var operator = Tenant{Gateway: true}

// submitOne pushes a single spec and returns its job ID.
func submitOne(t *testing.T, m *Manager, label string, cfg sim.Config) string {
	t.Helper()
	sts, err := m.Submit(Tenant{}, []JobSpec{{Label: label, Config: cfg}})
	if err != nil {
		t.Fatalf("submit %s: %v", label, err)
	}
	return sts[0].ID
}

// waitState polls until the job reaches want (or any terminal state
// when want is terminal and the job went elsewhere, which fails).
func waitState(t *testing.T, m *Manager, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Job(operator, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s finished as %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

func drainManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestManagerSingleflightDedup holds the single worker busy, submits
// the same config from 8 goroutines, and demands exactly one
// simulation with every job receiving the identical result.
func TestManagerSingleflightDedup(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)

	cfg := tinyCfg(42)
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sts, err := m.Submit(Tenant{}, []JobSpec{{Label: "dup", Config: cfg}})
			if err != nil {
				t.Errorf("concurrent submit %d: %v", i, err)
				return
			}
			ids[i] = sts[0].ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var results []sim.Result
	for _, id := range ids {
		st := waitState(t, m, id, StateDone)
		if st.Result == nil {
			t.Fatalf("job %s done without a result", id)
		}
		results = append(results, *st.Result)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("job %d received a different result than job 0", i)
		}
	}

	waitState(t, m, blocker, StateDone)
	met := m.Metrics()
	if met.SimulationsRun != 2 { // blocker + exactly one for the 8 dups
		t.Errorf("simulations_run = %d, want 2", met.SimulationsRun)
	}
	if met.JobsDeduped != n-1 {
		t.Errorf("jobs_deduped = %d, want %d", met.JobsDeduped, n-1)
	}
	if met.JobsCompleted != n+1 {
		t.Errorf("jobs_completed = %d, want %d", met.JobsCompleted, n+1)
	}
}

// TestManagerCancelQueued cancels a job stuck behind a blocker and
// checks its simulation never runs, without disturbing the manager.
func TestManagerCancelQueued(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)
	target := submitOne(t, m, "target", tinyCfg(7))
	if st, _ := m.Job(operator, target); st.State != StateQueued {
		t.Fatalf("target is %s, want queued", st.State)
	}

	st, err := m.Cancel(operator, target)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("cancel left job %s, want canceled", st.State)
	}
	// Cancel of a terminal job is a no-op, not an error.
	if st, err = m.Cancel(operator, target); err != nil || st.State != StateCanceled {
		t.Fatalf("second cancel: %v (state %s)", err, st.State)
	}

	waitState(t, m, blocker, StateDone)
	// A fresh job still runs after the canceled flight was skipped.
	after := submitOne(t, m, "after", tinyCfg(8))
	waitState(t, m, after, StateDone)

	met := m.Metrics()
	if met.SimulationsRun != 2 { // blocker + after; target never simulated
		t.Errorf("simulations_run = %d, want 2", met.SimulationsRun)
	}
	if met.JobsCanceled != 1 {
		t.Errorf("jobs_canceled = %d, want 1", met.JobsCanceled)
	}
}

// TestManagerCancelUnknown covers the 404 path.
func TestManagerCancelUnknown(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	defer drainManager(t, m)
	if _, err := m.Cancel(operator, "job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown: %v, want ErrUnknownJob", err)
	}
	if _, err := m.Job(operator, "job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("get unknown: %v, want ErrUnknownJob", err)
	}
}

// TestManagerDrain checks graceful shutdown: the running job finishes,
// the queued one is canceled, and new submissions are rejected.
func TestManagerDrain(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})

	running := submitOne(t, m, "running", blockerCfg())
	waitState(t, m, running, StateRunning)
	queued := submitOne(t, m, "queued", tinyCfg(3))

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()

	// Once draining is visible, submissions must fail.
	deadline := time.Now().Add(60 * time.Second)
	for !m.Metrics().Draining {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(Tenant{}, []JobSpec{{Config: tinyCfg(4)}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := m.Job(operator, running); st.State != StateDone {
		t.Errorf("running job drained to %s, want done", st.State)
	}
	if st, _ := m.Job(operator, queued); st.State != StateCanceled {
		t.Errorf("queued job drained to %s, want canceled", st.State)
	}
	// Drain is idempotent.
	if err := m.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestManagerQueueFull checks the bounded-intake contract, including
// all-or-nothing batch rejection.
func TestManagerQueueFull(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	defer drainManager(t, m)

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning) // worker busy, queue empty
	submitOne(t, m, "fills-queue", tinyCfg(1))

	if _, err := m.Submit(Tenant{}, []JobSpec{{Config: tinyCfg(2)}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	before := m.Metrics().JobsSubmitted
	_, err := m.Submit(Tenant{}, []JobSpec{{Config: tinyCfg(5)}, {Config: tinyCfg(6)}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow batch: %v, want ErrQueueFull", err)
	}
	if after := m.Metrics().JobsSubmitted; after != before {
		t.Errorf("rejected batch still created %d jobs", after-before)
	}

	// Duplicates of queued work need no fresh slot: dedup keeps
	// admitting them at full queue.
	if _, err := m.Submit(Tenant{}, []JobSpec{{Config: tinyCfg(1)}}); err != nil {
		t.Errorf("dedup submit at full queue: %v", err)
	}
}

// TestManagerResubmitAfterCancel is the regression test for canceled
// queued flights lingering in the dedup index: resubmitting the same
// config must start a fresh simulation, not attach to the doomed
// flight and hang forever.
func TestManagerResubmitAfterCancel(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)
	cfg := tinyCfg(55)
	first := submitOne(t, m, "first", cfg)
	if _, err := m.Cancel(operator, first); err != nil {
		t.Fatal(err)
	}

	second := submitOne(t, m, "second", cfg)
	st := waitState(t, m, second, StateDone)
	if st.Result == nil {
		t.Fatal("resubmitted job finished without a result")
	}
	if got, _ := m.Job(operator, first); got.State != StateCanceled {
		t.Errorf("first job flipped to %s after resubmission", got.State)
	}
}

// TestManagerCancelDoesNotPoisonRunningFlight: canceling the only
// subscriber of a RUNNING flight must not fail a job that attaches to
// the same config while the simulation is still in flight.
func TestManagerCancelDoesNotPoisonRunningFlight(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)

	orig := submitOne(t, m, "orig", blockerCfg())
	waitState(t, m, orig, StateRunning)
	if _, err := m.Cancel(operator, orig); err != nil {
		t.Fatal(err)
	}
	attach := submitOne(t, m, "late-attacher", blockerCfg())
	st := waitState(t, m, attach, StateDone)
	if st.Result == nil {
		t.Fatal("late attacher finished without a result")
	}
	if !st.Deduped {
		t.Error("late attacher did not dedup against the running flight")
	}
}

// TestManagerRetention evicts the oldest terminal jobs beyond the cap
// while keeping their results reachable; live jobs are never evicted.
func TestManagerRetention(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 2, Retention: 2, Cache: cache})
	defer drainManager(t, m)

	var ids []string
	var keys []string
	for i := uint64(0); i < 4; i++ {
		cfg := tinyCfg(100 + i)
		id := submitOne(t, m, "r", cfg)
		st := waitState(t, m, id, StateDone)
		ids = append(ids, id)
		keys = append(keys, st.Key)
	}

	if _, err := m.Job(operator, ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest job survived retention: %v", err)
	}
	if _, err := m.Job(operator, ids[3]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if got := len(m.Jobs()); got != 2 {
		t.Errorf("%d jobs retained, want 2", got)
	}
	if met := m.Metrics(); met.JobsRetained != 2 {
		t.Errorf("jobs_retained = %d, want 2", met.JobsRetained)
	}
	// The evicted job's result is still content-addressable.
	if _, ok := cache.Lookup(keys[0]); !ok {
		t.Error("evicted job's result missing from the cache")
	}
}

// TestManagerCancelFreesQueueSlots: canceling queued jobs must free
// their bounded-queue slots immediately, not tombstone them until a
// worker gets around to skipping them.
func TestManagerCancelFreesQueueSlots(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	defer drainManager(t, m)

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)
	q1 := submitOne(t, m, "q1", tinyCfg(201))
	q2 := submitOne(t, m, "q2", tinyCfg(202))
	if _, err := m.Submit(Tenant{}, []JobSpec{{Config: tinyCfg(203)}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue not full: %v", err)
	}

	for _, id := range []string{q1, q2} {
		if _, err := m.Cancel(operator, id); err != nil {
			t.Fatal(err)
		}
	}
	// Both slots must be free again while the blocker still runs.
	id := submitOne(t, m, "after-cancel", tinyCfg(203))
	waitState(t, m, id, StateDone)
}

// TestManagerDrainCancelsKeylessFlight: uncacheable (custom-mechanism)
// configs never enter the dedup index, but Drain must still cancel
// them while queued instead of running them during shutdown.
func TestManagerDrainCancelsKeylessFlight(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)

	cfg := tinyCfg(301)
	cfg.Mechanism = sim.Custom
	cfg.CustomMechanism = func(channel int, spec dram.Spec, fast, def dram.TimingClass) (core.Mechanism, error) {
		return core.NewBaseline(def), nil
	}
	sts, err := m.Submit(Tenant{}, []JobSpec{{Label: "keyless", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Key != "" {
		t.Fatalf("custom-mechanism config got key %q", sts[0].Key)
	}

	drainManager(t, m)
	if st, _ := m.Job(operator, sts[0].ID); st.State != StateCanceled {
		t.Errorf("key-less queued job drained to %s, want canceled", st.State)
	}
	if met := m.Metrics(); met.SimulationsRun != 1 {
		t.Errorf("simulations_run = %d, want 1 (the blocker only)", met.SimulationsRun)
	}
}

// TestManagerSubmitValidation rejects malformed submissions up front.
func TestManagerSubmitValidation(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	defer drainManager(t, m)
	if _, err := m.Submit(Tenant{}, nil); err == nil {
		t.Error("empty submission accepted")
	}
	bad := tinyCfg(1)
	bad.Workloads = nil
	if _, err := m.Submit(Tenant{}, []JobSpec{{Config: bad}}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestManagerBatchInternalDedup submits one batch containing the same
// config twice plus a distinct one: two flights, three jobs.
func TestManagerBatchInternalDedup(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8, Cache: cache})
	defer drainManager(t, m)

	sts, err := m.Submit(Tenant{}, []JobSpec{
		{Label: "a", Config: tinyCfg(1)},
		{Label: "b", Config: tinyCfg(2)},
		{Label: "a-again", Config: tinyCfg(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, dup JobStatus
	for _, st := range sts {
		final := waitState(t, m, st.ID, StateDone)
		switch st.Label {
		case "a":
			a = final
		case "a-again":
			dup = final
		}
	}
	if !reflect.DeepEqual(a.Result, dup.Result) {
		t.Error("duplicate batch entries returned different results")
	}
	met := m.Metrics()
	if met.SimulationsRun+met.CacheHits != 2 {
		t.Errorf("simulations+hits = %d, want 2 (batch dedup failed)", met.SimulationsRun+met.CacheHits)
	}
	if met.JobsCompleted != 3 {
		t.Errorf("jobs_completed = %d, want 3", met.JobsCompleted)
	}
}
