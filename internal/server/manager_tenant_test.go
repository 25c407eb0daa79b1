package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestRegistry(t *testing.T, tenants ...Tenant) *Registry {
	t.Helper()
	r, err := NewRegistry(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFairShareAlternates holds the single worker busy, queues 4 jobs
// each for two equal-weight tenants (tenant A's all submitted first),
// and demands the scheduler interleave them instead of FIFO-draining
// tenant A.
func TestFairShareAlternates(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "a", Token: "ta"},
		Tenant{Name: "b", Token: "tb"},
	)
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 32, Tenants: reg})
	defer drainManager(t, m)

	blocker, err := m.Submit(Tenant{Name: "a"}, []JobSpec{{Label: "blocker", Config: blockerCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning)

	var ids []string
	for i := uint64(0); i < 4; i++ {
		sts, err := m.Submit(Tenant{Name: "a"}, []JobSpec{{Label: "a", Config: tinyCfg(1000 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sts[0].ID)
	}
	for i := uint64(0); i < 4; i++ {
		sts, err := m.Submit(Tenant{Name: "b"}, []JobSpec{{Label: "b", Config: tinyCfg(2000 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sts[0].ID)
	}

	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}

	// Completion order (by StartedAt) must interleave tenants: with
	// equal weights, B's first job cannot wait behind all four of A's.
	type started struct {
		tenant string
		at     time.Time
	}
	var order []started
	for _, st := range m.Jobs() {
		if st.Label == "blocker" || st.StartedAt == nil {
			continue
		}
		order = append(order, started{st.Tenant, *st.StartedAt})
	}
	if len(order) != 8 {
		t.Fatalf("%d started jobs, want 8", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i].at.Before(order[i-1].at) {
			order[i-1], order[i] = order[i], order[i-1]
			i = 0 // tiny insertion sort; n=8
		}
	}
	// Among the first 4 starts, both tenants must appear.
	seen := map[string]int{}
	for _, s := range order[:4] {
		seen[s.tenant]++
	}
	if seen["a"] == 0 || seen["b"] == 0 {
		t.Fatalf("first 4 scheduled jobs all from one tenant: %v (FIFO, not fair-share)", seen)
	}
}

// TestFairShareWeights gives tenant A twice tenant B's weight and
// checks A gets roughly two slots for B's one while both have backlog.
func TestFairShareWeights(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "heavy", Token: "th", Weight: 2},
		Tenant{Name: "light", Token: "tl", Weight: 1},
	)
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 64, Tenants: reg})
	defer drainManager(t, m)

	blocker, err := m.Submit(Tenant{Name: "light"}, []JobSpec{{Label: "blocker", Config: blockerCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning)

	var ids []string
	for i := uint64(0); i < 6; i++ {
		h, err := m.Submit(Tenant{Name: "heavy"}, []JobSpec{{Label: "h", Config: tinyCfg(3000 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		l, err := m.Submit(Tenant{Name: "light"}, []JobSpec{{Label: "l", Config: tinyCfg(4000 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h[0].ID, l[0].ID)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}

	// While both tenants had backlog — i.e. before light's last job
	// starts — heavy must have started at least as many jobs as light
	// and no more than its 2:1 share plus slack for DRR quantization.
	var starts []JobStatus
	for _, st := range m.Jobs() {
		if st.Label == "blocker" || st.StartedAt == nil {
			continue
		}
		starts = append(starts, st)
	}
	// Order by start time.
	for i := 1; i < len(starts); i++ {
		for j := i; j > 0 && starts[j].StartedAt.Before(*starts[j-1].StartedAt); j-- {
			starts[j-1], starts[j] = starts[j], starts[j-1]
		}
	}
	heavyEarly := 0
	for _, st := range starts[:6] {
		if st.Tenant == "heavy" {
			heavyEarly++
		}
	}
	// In the first 6 starts a 2:1 weighting should give heavy ~4; allow
	// [3, 5] for quantization at the DRR round boundaries.
	if heavyEarly < 3 || heavyEarly > 5 {
		t.Fatalf("heavy started %d of the first 6 jobs, want 3..5 at weight 2:1", heavyEarly)
	}
}

// TestMaxConcurrent pins a tenant to 1 running job on a 2-worker
// manager: its second job must wait even though a worker idles.
func TestMaxConcurrent(t *testing.T) {
	reg := newTestRegistry(t, Tenant{Name: "capped", Token: "tc", MaxConcurrent: 1})
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 16, Tenants: reg})
	defer drainManager(t, m)

	caller := Tenant{Name: "capped"}
	b1, err := m.Submit(caller, []JobSpec{{Label: "b1", Config: blockerCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, b1[0].ID, StateRunning)

	cfg := blockerCfg()
	cfg.Seed = 100 // distinct key so it cannot dedup onto b1
	b2, err := m.Submit(caller, []JobSpec{{Label: "b2", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}

	// b2 must stay queued while b1 runs despite the idle second worker.
	time.Sleep(50 * time.Millisecond)
	if st, _ := m.Job(operator, b2[0].ID); st.State != StateQueued {
		t.Fatalf("second job is %s, want queued under max_concurrent=1", st.State)
	}
	waitState(t, m, b1[0].ID, StateDone)
	waitState(t, m, b2[0].ID, StateDone)
}

// TestMaxQueuedQuota rejects submissions past the tenant's queued cap
// with a typed QuotaError, while other tenants are unaffected.
func TestMaxQueuedQuota(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "small", Token: "ts", MaxQueued: 2},
		Tenant{Name: "other", Token: "to"},
	)
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 32, Tenants: reg})
	defer drainManager(t, m)

	small := Tenant{Name: "small"}
	blocker, err := m.Submit(small, []JobSpec{{Label: "blocker", Config: blockerCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning)

	for i := uint64(0); i < 2; i++ {
		if _, err := m.Submit(small, []JobSpec{{Config: tinyCfg(5000 + i)}}); err != nil {
			t.Fatalf("queued submission %d: %v", i, err)
		}
	}
	_, err = m.Submit(small, []JobSpec{{Config: tinyCfg(5100)}})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Quota != "queued" || qe.Tenant != "small" || qe.Limit != 2 {
		t.Fatalf("over-quota submit = %v, want QuotaError{queued, small, 2}", err)
	}
	// Batches are all-or-nothing against the quota too.
	if _, err := m.Submit(small, []JobSpec{{Config: tinyCfg(5101)}, {Config: tinyCfg(5102)}}); !errors.As(err, &qe) {
		t.Fatalf("over-quota batch = %v, want QuotaError", err)
	}
	// The other tenant still has the whole shared queue.
	if _, err := m.Submit(Tenant{Name: "other"}, []JobSpec{{Config: tinyCfg(5200)}}); err != nil {
		t.Fatalf("unaffected tenant rejected: %v", err)
	}
	if met := m.Metrics(); len(met.Tenants) == 0 {
		t.Fatal("no per-tenant metrics")
	} else {
		for _, tm := range met.Tenants {
			if tm.Name == "small" && tm.QuotaRejected != 2 {
				t.Errorf("small.quota_rejected = %d, want 2", tm.QuotaRejected)
			}
		}
	}
}

// TestPriorityPreemption fills the queue with low-priority work, then
// checks a high-priority submission evicts queued (never running)
// low-priority jobs to make room — and that the victims read as
// canceled with an explanatory error.
func TestPriorityPreemption(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "batch", Token: "tb", Priority: 0},
		Tenant{Name: "urgent", Token: "tu", Priority: 2},
	)
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2, Tenants: reg})
	defer drainManager(t, m)

	batch := Tenant{Name: "batch"}
	blocker, err := m.Submit(batch, []JobSpec{{Label: "blocker", Config: blockerCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning)

	q1, err := m.Submit(batch, []JobSpec{{Label: "q1", Config: tinyCfg(6001)}})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := m.Submit(batch, []JobSpec{{Label: "q2", Config: tinyCfg(6002)}})
	if err != nil {
		t.Fatal(err)
	}
	// Queue full: same-priority overflow still fails...
	if _, err := m.Submit(batch, []JobSpec{{Config: tinyCfg(6003)}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("same-priority overflow: %v, want ErrQueueFull", err)
	}
	// ...but the urgent tenant preempts the newest queued batch job.
	urgent, err := m.Submit(Tenant{Name: "urgent"}, []JobSpec{{Label: "now", Config: tinyCfg(6010)}})
	if err != nil {
		t.Fatalf("priority submission rejected at full queue: %v", err)
	}

	if st, _ := m.Job(operator, q2[0].ID); st.State != StateCanceled {
		t.Fatalf("newest low-priority job is %s, want canceled (preempted)", st.State)
	} else if st.Error == "" {
		t.Error("preempted job has no explanatory error")
	}
	if st, _ := m.Job(operator, q1[0].ID); st.State != StateQueued {
		t.Fatalf("older low-priority job is %s, want still queued (only `need` victims)", st.State)
	}

	waitState(t, m, urgent[0].ID, StateDone)
	waitState(t, m, q1[0].ID, StateDone)

	// Urgent must have started before the surviving batch job.
	u, _ := m.Job(operator, urgent[0].ID)
	b1, _ := m.Job(operator, q1[0].ID)
	if u.StartedAt == nil || b1.StartedAt == nil || b1.StartedAt.Before(*u.StartedAt) {
		t.Error("high-priority job did not start before queued low-priority work")
	}

	met := m.Metrics()
	for _, tm := range met.Tenants {
		if tm.Name == "batch" && tm.Preempted != 1 {
			t.Errorf("batch.preempted = %d, want 1", tm.Preempted)
		}
	}

	// The running blocker was never touched.
	if st, _ := m.Job(operator, blocker[0].ID); st.State != StateDone && st.State != StateRunning {
		t.Fatalf("running job was preempted: %s", st.State)
	}
}

// TestPreemptionAllOrNothing: a 2-job high-priority batch with only one
// preemptible victim must be rejected whole, leaving the victim queued.
func TestPreemptionAllOrNothing(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "batch", Token: "tb", Priority: 0},
		Tenant{Name: "urgent", Token: "tu", Priority: 1},
	)
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2, Tenants: reg})
	defer drainManager(t, m)

	blocker, err := m.Submit(Tenant{Name: "urgent"}, []JobSpec{{Label: "blocker", Config: blockerCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker[0].ID, StateRunning)
	// One urgent and one batch job fill the queue: only the batch one
	// is preemptible, so a 2-wide urgent batch (needing 2 slots) fails.
	uq, err := m.Submit(Tenant{Name: "urgent"}, []JobSpec{{Config: tinyCfg(7001)}})
	if err != nil {
		t.Fatal(err)
	}
	bq, err := m.Submit(Tenant{Name: "batch"}, []JobSpec{{Config: tinyCfg(7002)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Tenant{Name: "urgent"}, []JobSpec{{Config: tinyCfg(7003)}, {Config: tinyCfg(7004)}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("partial-preemption batch = %v, want ErrQueueFull", err)
	}
	if st, _ := m.Job(operator, bq[0].ID); st.State != StateQueued {
		t.Fatalf("victim canceled by a rejected batch: %s", st.State)
	}
	waitState(t, m, uq[0].ID, StateDone)
	waitState(t, m, bq[0].ID, StateDone)
}

// TestTenantVisibility: non-gateway tenants see only their own jobs;
// gateways see everything and may attribute work to other tenants.
func TestTenantVisibility(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "a", Token: "ta"},
		Tenant{Name: "b", Token: "tb"},
		Tenant{Name: "fleet", Token: "tf", Gateway: true},
	)
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 16, Tenants: reg})
	defer drainManager(t, m)

	a, b, fleet := Tenant{Name: "a"}, Tenant{Name: "b"}, reg.Lookup("fleet")
	aj, err := m.Submit(a, []JobSpec{{Label: "a-job", Config: tinyCfg(8001)}})
	if err != nil {
		t.Fatal(err)
	}
	// A gateway submits on b's behalf.
	bj, err := m.Submit(fleet, []JobSpec{{Label: "b-job", Config: tinyCfg(8002), Tenant: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, aj[0].ID, StateDone)
	waitState(t, m, bj[0].ID, StateDone)

	// Attribution followed the spec, not the gateway caller.
	if st, err := m.Job(b, bj[0].ID); err != nil || st.Tenant != "b" {
		t.Fatalf("gateway-submitted job: tenant %q, err %v; want b's job visible to b", st.Tenant, err)
	}
	// A non-gateway tenant cannot spoof attribution...
	cj, err := m.Submit(a, []JobSpec{{Label: "spoof", Config: tinyCfg(8003), Tenant: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Job(a, cj[0].ID); st.Tenant != "a" {
		t.Fatalf("non-gateway caller attributed a job to %q", st.Tenant)
	}

	// ...and cannot see, cancel, or even confirm the existence of
	// another tenant's job.
	if _, err := m.Job(b, aj[0].ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cross-tenant Job = %v, want ErrUnknownJob", err)
	}
	if _, err := m.Cancel(b, aj[0].ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cross-tenant Cancel = %v, want ErrUnknownJob", err)
	}
	if _, err := m.Analysis(b, aj[0].ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cross-tenant Analysis = %v, want ErrUnknownJob", err)
	}
	if _, _, _, err := m.Subscribe(b, aj[0].ID, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cross-tenant Subscribe = %v, want ErrUnknownJob", err)
	}

	// Listings are filtered per caller; the gateway sees all.
	if jobs := m.ListJobs(a, nil); len(jobs) != 2 { // a-job + spoof
		t.Errorf("a sees %d jobs, want 2", len(jobs))
	}
	if jobs := m.ListJobs(b, nil); len(jobs) != 1 {
		t.Errorf("b sees %d jobs, want 1", len(jobs))
	}
	if jobs := m.ListJobs(fleet, nil); len(jobs) != 3 {
		t.Errorf("gateway sees %d jobs, want 3", len(jobs))
	}
	if got := m.ListJobs(b, []string{aj[0].ID, bj[0].ID}); len(got) != 1 {
		t.Errorf("filtered bulk lookup returned %d jobs, want 1", len(got))
	}
}

// TestOpenModeSubmitCompat: with no registry, Submit with an anonymous
// caller behaves identically to the pre-gateway manager — spec.Tenant
// is honored as a label and everything is visible.
func TestOpenModeSubmitCompat(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 8})
	defer drainManager(t, m)

	sts, err := m.Submit(Tenant{}, []JobSpec{{Label: "open", Config: tinyCfg(9001), Tenant: "team-x"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, sts[0].ID, StateDone)
	if st.Tenant != "team-x" {
		t.Errorf("open-mode tenant label = %q, want team-x", st.Tenant)
	}
	// Any caller sees it.
	if _, err := m.Job(Tenant{Name: "someone-else"}, sts[0].ID); err != nil {
		t.Errorf("open-mode visibility: %v", err)
	}
}

// TestMetricsTenantConcurrency hammers submit/cancel/metrics in
// parallel and asserts the per-tenant invariants hold at every
// observation: queued <= max_queued, counters monotonic, rate tokens
// never negative.
func TestMetricsTenantConcurrency(t *testing.T) {
	reg := newTestRegistry(t,
		Tenant{Name: "q", Token: "tq", MaxQueued: 3},
		Tenant{Name: "r", Token: "tr", RatePerSec: 1000, Burst: 5},
	)
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 64, Tenants: reg})
	defer drainManager(t, m)

	stop := make(chan struct{})
	var violations []string
	var vmu sync.Mutex
	violate := func(format string, args ...any) {
		vmu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		vmu.Unlock()
	}

	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		prev := map[string]TenantMetrics{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			met := m.Metrics()
			for _, tm := range met.Tenants {
				if tm.Name == "q" && tm.Queued > 3 {
					violate("tenant q queued %d > max 3", tm.Queued)
				}
				if tm.RateTokens != nil && *tm.RateTokens < 0 {
					violate("tenant %s tokens %v < 0", tm.Name, *tm.RateTokens)
				}
				if p, ok := prev[tm.Name]; ok {
					if tm.Submitted < p.Submitted || tm.Completed < p.Completed ||
						tm.Canceled < p.Canceled || tm.QuotaRejected < p.QuotaRejected {
						violate("tenant %s counters went backwards: %+v -> %+v", tm.Name, p, tm)
					}
				}
				prev[tm.Name] = tm
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "q"
			if w%2 == 1 {
				name = "r"
			}
			caller := Tenant{Name: name}
			for i := 0; i < 30; i++ {
				if name == "r" {
					// The HTTP layer owns rate limiting; exercise the
					// bucket here so RateTokens moves under load.
					reg.AllowSubmit("r")
				}
				sts, err := m.Submit(caller, []JobSpec{{Config: tinyCfg(uint64(10_000 + w*1000 + i))}})
				if err != nil {
					var qe *QuotaError
					if errors.As(err, &qe) || errors.Is(err, ErrQueueFull) {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					t.Errorf("worker %d submit: %v", w, err)
					return
				}
				if i%3 == 0 {
					m.Cancel(caller, sts[0].ID)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	observer.Wait()

	vmu.Lock()
	defer vmu.Unlock()
	for _, v := range violations {
		t.Error(v)
	}
}
