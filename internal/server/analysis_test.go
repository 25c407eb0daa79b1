package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// analysisCfg is tinyCfg with the perf analyzer switched on, rings
// sized so nothing is dropped or clamped at this run length.
func analysisCfg(seed uint64) sim.Config {
	cfg := tinyCfg(seed)
	cfg.Analysis = &analysis.Config{Enabled: true, EpochCycles: 10_000, MaxEpochs: 1024}
	return cfg
}

// TestMetricsCacheHitRate is the regression test for the CacheHitRate
// formula: remote simulations are resolutions too, so they belong in
// the denominator. One flight runs on a peer, a second identical
// submission hits the cache — the rate must be 1/2, not the 1/1 the
// old doc comment (cache_hits / (cache_hits + simulations_run))
// implied.
func TestMetricsCacheHitRate(t *testing.T) {
	cache, err := sweep.OpenCache(filepath.Join(t.TempDir(), "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	m := NewManager(ManagerConfig{
		Workers: NoLocalWorkers,
		Remotes: []Remote{simulatingRemote("peer-a", 1, &ran)},
		Cache:   cache,
	})
	defer drainManager(t, m)

	cfg := tinyCfg(401)
	first := submitOne(t, m, "remote", cfg)
	waitState(t, m, first, StateDone)
	// Same config again: the flight's result is already in the in-memory
	// cache, so this resolves as a cache hit without touching the peer.
	second := submitOne(t, m, "cached", cfg)
	waitState(t, m, second, StateDone)

	met := m.Metrics()
	if met.RemoteSimulations != 1 || met.SimulationsRun != 0 || met.CacheHits != 1 {
		t.Fatalf("remote=%d local=%d hits=%d, want 1/0/1",
			met.RemoteSimulations, met.SimulationsRun, met.CacheHits)
	}
	want := float64(met.CacheHits) / float64(met.CacheHits+met.SimulationsRun+met.RemoteSimulations)
	if met.CacheHitRate != want {
		t.Errorf("cache_hit_rate = %g, want %g (remote simulations must count as resolutions)",
			met.CacheHitRate, want)
	}
	if met.CacheHitRate != 0.5 {
		t.Errorf("cache_hit_rate = %g, want 0.5", met.CacheHitRate)
	}
}

// TestHTTPAnalysisEndpoint drives the full analysis surface over HTTP:
// a done analysis-enabled job serves its report on /v1/analysis/{id}
// (and the /analysis/{id} alias) with epoch timelines that sum to the
// run's own row-outcome stats, and every absence — unknown job, job
// still queued, job without analysis — is a distinct 404.
func TestHTTPAnalysisEndpoint(t *testing.T) {
	d := startDaemon(t, "", 1, 16)

	cfg := analysisCfg(410)
	id := submitHTTP(t, d, JobSpec{Label: "analyzed", Config: cfg})[0].ID
	st := pollDone(t, d, id)
	if st.Result == nil || st.Result.Analysis == nil {
		t.Fatal("analysis-enabled job finished without a report")
	}

	for _, path := range []string{"/v1/analysis/", "/analysis/"} {
		var rep analysis.Report
		if code := doJSON(t, http.MethodGet, d.url(path+id), nil, &rep); code != http.StatusOK {
			t.Fatalf("GET %s%s: HTTP %d", path, id, code)
		}
		if rep.Totals != st.Result.Analysis.Totals {
			t.Errorf("%s totals differ from the job's result", path)
		}
		// The epoch timelines must account for every classified request:
		// summed per-epoch row outcomes equal the simulator's own stats.
		var hits, misses, conflicts uint64
		for _, ch := range rep.Channels {
			for _, e := range ch.Epochs {
				hits += e.RowHits
				misses += e.RowMisses
				conflicts += e.RowConflicts
			}
		}
		if hits != st.Result.Controller.RowHits ||
			misses != st.Result.Controller.RowMisses ||
			conflicts != st.Result.Controller.RowConflicts {
			t.Errorf("%s epoch sums h/m/c = %d/%d/%d, controller stats %d/%d/%d",
				path, hits, misses, conflicts,
				st.Result.Controller.RowHits, st.Result.Controller.RowMisses,
				st.Result.Controller.RowConflicts)
		}
	}

	// Unknown job.
	if code := doJSON(t, http.MethodGet, d.url("/v1/analysis/job-999999"), nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	// Done job whose config never enabled analysis.
	plain := submitHTTP(t, d, JobSpec{Config: tinyCfg(411)})[0].ID
	pollDone(t, d, plain)
	var apiErr struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodGet, d.url("/v1/analysis/"+plain), nil, &apiErr); code != http.StatusNotFound {
		t.Errorf("analysis-less job: HTTP %d, want 404", code)
	}
	if apiErr.Error == "" {
		t.Error("analysis-less 404 carries no explanation")
	}
	// Job not finished yet: queue one behind a blocker.
	blocker := submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0].ID
	queued := submitHTTP(t, d, JobSpec{Config: analysisCfg(412)})[0].ID
	if code := doJSON(t, http.MethodGet, d.url("/v1/analysis/"+queued), nil, &apiErr); code != http.StatusNotFound {
		t.Errorf("queued job: HTTP %d, want 404", code)
	}
	pollDone(t, d, blocker)
	pollDone(t, d, queued)
}

// TestMetricsFleetAnalysis checks the /metrics fleet aggregates: absent
// until an analysis-enabled flight completes, then the event-exact sum
// of every contributing report's totals.
func TestMetricsFleetAnalysis(t *testing.T) {
	d := startDaemon(t, "", 2, 16)

	var met Metrics
	doJSON(t, http.MethodGet, d.url("/metrics"), nil, &met)
	if met.Analysis != nil {
		t.Fatal("analysis block present before any analysis-enabled flight")
	}
	// A plain flight must not create the block either.
	pollDone(t, d, submitHTTP(t, d, JobSpec{Config: tinyCfg(420)})[0].ID)
	doJSON(t, http.MethodGet, d.url("/metrics"), nil, &met)
	if met.Analysis != nil {
		t.Fatal("analysis block present after an analysis-less flight")
	}

	var wantHits, wantMisses, wantConf, wantLookups, wantCCHits uint64
	for _, seed := range []uint64{421, 422} {
		st := pollDone(t, d, submitHTTP(t, d, JobSpec{Config: analysisCfg(seed)})[0].ID)
		tot := st.Result.Analysis.Totals
		wantHits += tot.RowHits
		wantMisses += tot.RowMisses
		wantConf += tot.RowConflicts
		wantLookups += tot.CCLookups
		wantCCHits += tot.CCHits
	}

	doJSON(t, http.MethodGet, d.url("/metrics"), nil, &met)
	a := met.Analysis
	if a == nil {
		t.Fatal("no analysis block after two analysis-enabled flights")
	}
	if a.Reports != 2 {
		t.Errorf("reports = %d, want 2", a.Reports)
	}
	if a.RowHits != wantHits || a.RowMisses != wantMisses || a.RowConflicts != wantConf {
		t.Errorf("fleet rows h/m/c = %d/%d/%d, want %d/%d/%d",
			a.RowHits, a.RowMisses, a.RowConflicts, wantHits, wantMisses, wantConf)
	}
	if a.CCLookups != wantLookups || a.CCHits != wantCCHits {
		t.Errorf("fleet cc = %d/%d, want %d/%d", a.CCLookups, a.CCHits, wantLookups, wantCCHits)
	}
	if total := wantHits + wantMisses + wantConf; total > 0 {
		if want := float64(wantHits) / float64(total); a.RowHitRate != want {
			t.Errorf("fleet row_hit_rate = %g, want %g", a.RowHitRate, want)
		}
	}
}

// TestHTTPDashboard serves the embedded page.
func TestHTTPDashboard(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	resp, err := http.Get(d.url("/dashboard"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("dashboard content type %q", ct)
	}
	if len(dashboardHTML) == 0 {
		t.Fatal("embedded dashboard is empty")
	}
}

// noFlushWriter hides httptest.ResponseRecorder's Flusher so the SSE
// handler sees a writer that cannot stream.
type noFlushWriter struct {
	rec *httptest.ResponseRecorder
}

func (w *noFlushWriter) Header() http.Header         { return w.rec.Header() }
func (w *noFlushWriter) Write(b []byte) (int, error) { return w.rec.Write(b) }
func (w *noFlushWriter) WriteHeader(code int)        { w.rec.WriteHeader(code) }

// TestHTTPSSENonFlushableWriter: a front end that buffers responses
// (no http.Flusher) cannot carry SSE — the handler must answer with an
// explicit 500 instead of silently serving a stream that never moves.
func TestHTTPSSENonFlushableWriter(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	blocker := submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0]

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+blocker.ID+"/events", nil)
	w := &noFlushWriter{rec: httptest.NewRecorder()}
	New(d.m).ServeHTTP(w, req)
	if w.rec.Code != http.StatusInternalServerError {
		t.Errorf("non-flushable SSE: HTTP %d, want 500", w.rec.Code)
	}
	if w.rec.Body.Len() == 0 {
		t.Error("500 response carries no error body")
	}
	pollDone(t, d, blocker.ID)
}

// TestMetricsConcurrent hammers Metrics() while jobs are submitted,
// canceled, and drained. Run under -race this is the locking proof; the
// assertions additionally pin two invariants every snapshot must hold:
// monotone counters and queue_depth within queue_capacity.
func TestMetricsConcurrent(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Metrics
			for {
				select {
				case <-stop:
					return
				default:
				}
				met := m.Metrics()
				if met.QueueDepth < 0 || met.QueueDepth > met.QueueCapacity {
					t.Errorf("queue_depth %d outside [0, %d]", met.QueueDepth, met.QueueCapacity)
					return
				}
				if met.JobsSubmitted < prev.JobsSubmitted ||
					met.JobsCompleted < prev.JobsCompleted ||
					met.JobsFailed < prev.JobsFailed ||
					met.JobsCanceled < prev.JobsCanceled ||
					met.SimulationsRun < prev.SimulationsRun ||
					met.CacheHits < prev.CacheHits {
					t.Errorf("counters went backwards: %+v -> %+v", prev, met)
					return
				}
				prev = met
			}
		}()
	}

	var ids []string
	for i := uint64(0); i < 12; i++ {
		sts, err := m.Submit(Tenant{}, []JobSpec{{Config: analysisCfg(500 + i)}})
		if err != nil { // queue full under slow CI is fine; keep hammering
			time.Sleep(time.Millisecond)
			continue
		}
		ids = append(ids, sts[0].ID)
		if i%3 == 2 {
			_, _ = m.Cancel(operator, sts[0].ID)
		}
	}
	for _, id := range ids {
		deadline := time.Now().Add(120 * time.Second)
		for {
			st, err := m.Job(operator, id)
			if err != nil || st.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	drainManager(t, m)
	close(stop)
	wg.Wait()

	met := m.Metrics()
	if met.JobsCompleted+met.JobsCanceled+met.JobsFailed != met.JobsSubmitted {
		t.Errorf("terminal jobs %d+%d+%d != submitted %d",
			met.JobsCompleted, met.JobsCanceled, met.JobsFailed, met.JobsSubmitted)
	}
	if met.QueueDepth != 0 || met.Running != 0 {
		t.Errorf("drained manager still shows depth=%d running=%d", met.QueueDepth, met.Running)
	}
}
