package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestManagerDeadlineExpiresQueuedJob: a queued job whose propagated
// deadline passes before a worker frees up is failed fast with reason
// "deadline" — it never occupies a scheduler slot.
func TestManagerDeadlineExpiresQueuedJob(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)

	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)

	sts, err := m.Submit(Tenant{}, []JobSpec{{
		Label:      "doomed",
		Config:     tinyCfg(50),
		DeadlineMs: time.Now().Add(80 * time.Millisecond).UnixMilli(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, sts[0].ID, StateFailed)
	if st.Reason != ReasonDeadline {
		t.Errorf("Reason = %q, want %q", st.Reason, ReasonDeadline)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", st.Error)
	}
	if mt := m.Metrics(); mt.DeadlineExpired != 1 {
		t.Errorf("DeadlineExpired = %d, want 1", mt.DeadlineExpired)
	}

	// The expiry must not disturb the running flight.
	waitState(t, m, blocker, StateDone)
}

// TestManagerDeadlineShedsAtAdmission covers both admission-shed
// branches: a deadline already in the past, and a deadline the
// estimated queue drain (EWMA of fresh flight durations) cannot meet.
func TestManagerDeadlineShedsAtAdmission(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)

	// Past deadline: shed even on an idle manager.
	_, err := m.Submit(Tenant{}, []JobSpec{{
		Label:      "late",
		Config:     tinyCfg(60),
		DeadlineMs: time.Now().Add(-50 * time.Millisecond).UnixMilli(),
	}})
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("past-deadline submit returned %v, want *DeadlineError", err)
	}

	// Seed the drain estimate with one real flight, occupy the worker,
	// and submit a deadline far shorter than the estimated drain.
	seed := submitOne(t, m, "seed", tinyCfg(61))
	waitState(t, m, seed, StateDone)
	blocker := submitOne(t, m, "blocker", blockerCfg())
	waitState(t, m, blocker, StateRunning)

	_, err = m.Submit(Tenant{}, []JobSpec{{
		Label:      "unmeetable",
		Config:     tinyCfg(62),
		DeadlineMs: time.Now().Add(time.Millisecond).UnixMilli(),
	}})
	if !errors.As(err, &derr) {
		t.Fatalf("unmeetable submit returned %v, want *DeadlineError", err)
	}
	if mt := m.Metrics(); mt.DeadlineShed != 2 {
		t.Errorf("DeadlineShed = %d, want 2", mt.DeadlineShed)
	}
}

// TestSubmitDeadlineHeaderSheds: the HTTP layer parses the client's
// X-Ccsimd-Deadline-Ms header into the specs, and an unmeetable
// deadline is answered 503 with the machine-readable code so fleet
// dispatchers classify it as load, not as a dead daemon.
func TestSubmitDeadlineHeaderSheds(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16})
	defer drainManager(t, m)
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	submit := func(deadline time.Time) *http.Response {
		t.Helper()
		blob, err := json.Marshal(struct {
			Jobs []JobSpec `json:"jobs"`
		}{[]JobSpec{{Label: "x", Config: tinyCfg(70)}}})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DeadlineHeader, strconv.FormatInt(deadline.UnixMilli(), 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := submit(time.Now().Add(-time.Second))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-deadline submit: status %d, want 503", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != ErrCodeDeadlineUnmeetable {
		t.Errorf("error code = %q, want %q", e.Code, ErrCodeDeadlineUnmeetable)
	}

	// A generous header deadline is accepted and the job completes.
	resp = submit(time.Now().Add(time.Minute))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("future-deadline submit: status %d, want 202", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, sr.Jobs[0].ID, StateDone)
}

// TestManagerHedgesStragglerPeer: with HedgeAfter set, a flight stuck
// on a straggling peer gets a second attempt on the front's local
// worker (a fleet worker like any other, hence Workers: 1); the first
// result wins, the loser is cancelled, the peer keeps its slot, and
// SimulationsRun is never double-counted.
func TestManagerHedgesStragglerPeer(t *testing.T) {
	var calls atomic.Int64
	peer := &remoteFunc{name: "peer-slow", slots: 1, run: func(ctx context.Context, spec JobSpec) (JobStatus, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // straggle until the winning hedge cancels us
			return JobStatus{}, ctx.Err()
		}
		results, err := sweep.Run(ctx, []sweep.Job{{Label: spec.Label, Config: spec.Config}}, sweep.Options{Workers: 1})
		if err != nil {
			return JobStatus{}, &RemoteJobError{Endpoint: "peer-slow", State: StateFailed, Message: err.Error()}
		}
		return JobStatus{State: StateDone, Result: &results[0]}, nil
	}}
	m := NewManager(ManagerConfig{
		Workers:    1,
		Remotes:    []Remote{peer},
		HedgeAfter: 40 * time.Millisecond,
	})
	defer drainManager(t, m)

	cfg := tinyCfg(80)
	a := submitOne(t, m, "straggler", cfg)
	st := waitState(t, m, a, StateDone)
	want, err := sweep.Run(context.Background(), []sweep.Job{{Config: cfg}}, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.CPUCycles != want[0].CPUCycles {
		t.Error("hedged result differs from a local run")
	}
	mt := m.Metrics()
	if mt.HedgesLaunched != 1 || mt.HedgesWon != 1 {
		t.Errorf("HedgesLaunched=%d HedgesWon=%d, want 1/1", mt.HedgesLaunched, mt.HedgesWon)
	}
	if mt.SimulationsRun != 1 || mt.RemoteSimulations != 0 {
		t.Errorf("local=%d remote=%d simulations after hedge, want 1/0 (no double count)",
			mt.SimulationsRun, mt.RemoteSimulations)
	}

	// The straggler was slow, not dead: its slot survived and serves the
	// next flight remotely.
	b := submitOne(t, m, "healthy", tinyCfg(81))
	waitState(t, m, b, StateDone)
	mt = m.Metrics()
	if mt.RemoteSimulations != 1 {
		t.Errorf("RemoteSimulations = %d after recovery, want 1 (the peer kept its slot)", mt.RemoteSimulations)
	}
	if mt.SimulationsRun != 1 {
		t.Errorf("SimulationsRun = %d, want still 1", mt.SimulationsRun)
	}
}

// TestManagerPoisonQuarantine: a flight whose execution kills three
// successive workers is failed with reason "quarantined" instead of
// cascading through the fleet, and resubmissions of the same config
// fail fast at admission.
func TestManagerPoisonQuarantine(t *testing.T) {
	mkDead := func(name string) *remoteFunc {
		return &remoteFunc{name: name, slots: 1, run: func(ctx context.Context, spec JobSpec) (JobStatus, error) {
			return JobStatus{}, errors.New("connection reset by " + name)
		}}
	}
	m := NewManager(ManagerConfig{
		Workers: NoLocalWorkers,
		Remotes: []Remote{mkDead("p1"), mkDead("p2"), mkDead("p3")},
	})
	defer drainManager(t, m)

	cfg := tinyCfg(90)
	id := submitOne(t, m, "poison", cfg)
	st := waitState(t, m, id, StateFailed)
	if st.Reason != ReasonQuarantined {
		t.Errorf("Reason = %q, want %q", st.Reason, ReasonQuarantined)
	}
	if !strings.Contains(st.Error, "quarantined") {
		t.Errorf("error %q does not mention quarantine", st.Error)
	}
	mt := m.Metrics()
	if mt.PoisonQuarantined != 1 {
		t.Errorf("PoisonQuarantined = %d, want 1", mt.PoisonQuarantined)
	}
	if mt.JobsRequeued != 2 {
		t.Errorf("JobsRequeued = %d, want 2 (two hand-backs before the third crash quarantined)", mt.JobsRequeued)
	}

	// Resubmitting the poison config fails fast instead of eating more
	// workers.
	_, err := m.Submit(Tenant{}, []JobSpec{{Label: "again", Config: cfg}})
	if !errors.Is(err, ErrQuarantined) {
		t.Errorf("resubmit of quarantined config returned %v, want ErrQuarantined", err)
	}

	// The manager survived losing every peer: other jobs run locally.
	ok := submitOne(t, m, "survivor", tinyCfg(91))
	waitState(t, m, ok, StateDone)
	if mt := m.Metrics(); mt.SimulationsRun != 1 {
		t.Errorf("SimulationsRun = %d after peer loss, want 1", mt.SimulationsRun)
	}
}

// TestManagerStorageDegradedMode: when every durable-tier disk write
// fails (disk full, read-only filesystem), jobs keep completing, the
// daemon reports storage_degraded on /metrics and a warning (not a
// failure) on /readyz, and the first successful probe restores the
// complete state to disk.
func TestManagerStorageDegradedMode(t *testing.T) {
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "results.json")
	cache, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	// Directories squatting on the atomic-write temp paths make every
	// cache and journal write fail, like a dead disk would.
	for _, p := range []string{cachePath + ".tmp", cachePath + ".jobs.tmp"} {
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	m := NewManager(ManagerConfig{
		Workers:              1,
		QueueDepth:           16,
		Cache:                cache,
		StorageProbeInterval: time.Millisecond,
	})
	defer drainManager(t, m)
	ts := httptest.NewServer(New(m))
	defer ts.Close()

	// The dead disk must not fail the job.
	id := submitOne(t, m, "a", tinyCfg(95))
	waitState(t, m, id, StateDone)

	// Journal writes land asynchronously after job completion: poll.
	var mt Metrics
	deadline := time.Now().Add(10 * time.Second)
	for {
		mt = m.Metrics()
		if mt.Storage != nil && mt.Storage.CacheDegraded && mt.Storage.JournalDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storage never reported degraded: %+v", mt.Storage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !mt.StorageDegraded {
		t.Error("StorageDegraded flag not set while both tiers are degraded")
	}
	if mt.Storage.CacheWriteErrors < 1 || mt.Storage.JournalWriteErrors < 1 {
		t.Errorf("write errors cache=%d journal=%d, want >= 1 each",
			mt.Storage.CacheWriteErrors, mt.Storage.JournalWriteErrors)
	}
	if mt.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d while degraded, want 0", mt.JobsFailed)
	}

	// /readyz warns but stays ready: a memory-only daemon still serves.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d while degraded, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Storage != "degraded" {
		t.Errorf("/readyz storage = %q, want \"degraded\"", h.Storage)
	}

	// The disk comes back: the next write probes and restores the full
	// snapshot — nothing accumulated while degraded is lost.
	for _, p := range []string{cachePath + ".tmp", cachePath + ".jobs.tmp"} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) // let the probe window lapse
	id2 := submitOne(t, m, "b", tinyCfg(96))
	waitState(t, m, id2, StateDone)

	deadline = time.Now().Add(10 * time.Second)
	for {
		mt = m.Metrics()
		if mt.Storage != nil && !mt.Storage.CacheDegraded && !mt.Storage.JournalDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storage never recovered: %+v", mt.Storage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mt.StorageDegraded {
		t.Error("StorageDegraded flag still set after recovery")
	}
	if mt.Storage.CacheRestores < 1 || mt.Storage.JournalRestores < 1 {
		t.Errorf("restores cache=%d journal=%d, want >= 1 each",
			mt.Storage.CacheRestores, mt.Storage.JournalRestores)
	}

	// Both results — including the one completed while memory-only —
	// reached disk.
	reopened, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Errorf("restored cache holds %d results, want 2 (degraded-era result included)", reopened.Len())
	}
}
