package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// phaseCfg is analysisCfg with the sampled phase profiler on.
func phaseCfg(seed uint64) sim.Config {
	cfg := analysisCfg(seed)
	cfg.Analysis.PhaseProfile = true
	return cfg
}

// sseStream reads one SSE connection frame by frame, so tests can stop
// mid-stream to model a dropped connection.
type sseStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

func openSSE(t *testing.T, url string, lastEventID uint64) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	return &sseStream{body: resp.Body, sc: sc}
}

// next returns the next frame; ok is false at EOF.
func (s *sseStream) next(t *testing.T) (sseEvent, bool) {
	t.Helper()
	var cur sseEvent
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				return cur, true
			}
		}
	}
	return sseEvent{}, false
}

func (s *sseStream) close() { _ = s.body.Close() }

// applyFrame folds one epochs/summary frame into the accumulator and
// returns its sequence number.
func applyFrame(t *testing.T, acc *analysis.StreamAccumulator, ev sseEvent) uint64 {
	t.Helper()
	var b analysis.StreamBatch
	if err := json.Unmarshal([]byte(ev.data), &b); err != nil {
		t.Fatalf("bad %s payload %q: %v", ev.event, ev.data, err)
	}
	acc.Apply(b)
	seq, err := strconv.ParseUint(ev.id, 10, 64)
	if err != nil {
		t.Fatalf("frame id %q is not a sequence number", ev.id)
	}
	if seq != b.Seq {
		t.Fatalf("frame id %d != batch seq %d", seq, b.Seq)
	}
	return seq
}

// fetchAnalysisJSON returns the canonical bytes of /v1/analysis/{id}.
func fetchAnalysisJSON(t *testing.T, d *testDaemon, id string) []byte {
	t.Helper()
	var rep analysis.Report
	if code := doJSON(t, http.MethodGet, d.url("/v1/analysis/"+id), nil, &rep); code != http.StatusOK {
		t.Fatalf("GET /v1/analysis/%s: HTTP %d", id, code)
	}
	blob, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestHTTPAnalysisStreamLiveMatchesFinal is the byte-identity proof for
// the live path: a subscriber that joins while the job is still queued
// receives every epoch batch as the simulation produces them, and the
// report reconstructed purely from those streamed frames marshals to
// exactly the bytes /v1/analysis/{id} serves afterwards.
func TestHTTPAnalysisStreamLiveMatchesFinal(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	blocker := submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0].ID
	id := submitHTTP(t, d, JobSpec{Label: "live", Config: phaseCfg(430)})[0].ID

	// Subscribe before the job starts running: the analysis stream
	// exists from submission, so this connection sees the whole run live.
	s := openSSE(t, d.url("/v1/analysis/"+id+"/stream"), 0)
	defer s.close()

	acc := analysis.NewStreamAccumulator()
	var lastSeq uint64
	var frames int
	for {
		ev, ok := s.next(t)
		if !ok {
			t.Fatal("stream ended without a done frame")
		}
		switch ev.event {
		case "epochs", "summary":
			seq := applyFrame(t, acc, ev)
			if seq <= lastSeq {
				t.Fatalf("sequence went backwards: %d after %d", seq, lastSeq)
			}
			lastSeq = seq
			frames++
		case "done":
			goto finished
		case "error":
			t.Fatalf("stream error frame: %s", ev.data)
		default:
			t.Fatalf("unexpected event %q", ev.event)
		}
	}
finished:
	if frames == 0 {
		t.Fatal("no epoch batches streamed")
	}
	rep, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	pollDone(t, d, id)
	if final := fetchAnalysisJSON(t, d, id); !bytes.Equal(streamed, final) {
		t.Errorf("streamed reconstruction differs from final report:\nstream: %s\nfinal:  %s", streamed, final)
	}
	pollDone(t, d, blocker)
}

// TestHTTPAnalysisStreamResume drops the connection mid-stream and
// resumes with Last-Event-ID: the union of the frames from both
// connections must still reconstruct the final report exactly — the
// catch-up snapshot heals whatever the dropped connection missed.
func TestHTTPAnalysisStreamResume(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	blocker := submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0].ID
	id := submitHTTP(t, d, JobSpec{Label: "resume", Config: analysisCfg(431)})[0].ID

	acc := analysis.NewStreamAccumulator()
	var lastSeq uint64

	// First connection: read at most two batches, then drop it.
	s := openSSE(t, d.url("/v1/analysis/"+id+"/stream"), 0)
	for read := 0; read < 2; {
		ev, ok := s.next(t)
		if !ok || ev.event == "done" {
			break
		}
		if ev.event == "epochs" || ev.event == "summary" {
			lastSeq = applyFrame(t, acc, ev)
			read++
		}
	}
	s.close()
	if lastSeq == 0 {
		t.Fatal("first connection saw no batches")
	}

	// Second connection resumes past the last applied frame.
	s = openSSE(t, d.url("/v1/analysis/"+id+"/stream"), lastSeq)
	defer s.close()
	for {
		ev, ok := s.next(t)
		if !ok {
			t.Fatal("resumed stream ended without a done frame")
		}
		if ev.event == "done" {
			break
		}
		if ev.event == "error" {
			t.Fatalf("stream error frame: %s", ev.data)
		}
		seq := applyFrame(t, acc, ev)
		if seq <= lastSeq {
			t.Fatalf("resumed frame seq %d not after cursor %d", seq, lastSeq)
		}
		lastSeq = seq
	}
	rep, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	pollDone(t, d, id)
	if final := fetchAnalysisJSON(t, d, id); !bytes.Equal(streamed, final) {
		t.Errorf("resumed reconstruction differs from final report")
	}
	pollDone(t, d, blocker)
}

// TestHTTPJobEventsResumeNoGaps drops the job-events SSE connection
// after the first frames and resumes with Last-Event-ID: the combined
// sequence must be exactly 1..N with no gap and no duplicate.
func TestHTTPJobEventsResumeNoGaps(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	blocker := submitHTTP(t, d, JobSpec{Config: blockerCfg()})[0].ID
	id := submitHTTP(t, d, JobSpec{Config: tinyCfg(432)})[0].ID

	var seqs []uint64
	s := openSSE(t, d.url("/v1/jobs/"+id+"/events"), 0)
	ev, ok := s.next(t)
	if !ok || ev.event != "status" {
		t.Fatalf("first frame = %+v, want a status", ev)
	}
	first, err := strconv.ParseUint(ev.id, 10, 64)
	if err != nil {
		t.Fatalf("frame id %q: %v", ev.id, err)
	}
	seqs = append(seqs, first)
	s.close() // dropped connection

	s = openSSE(t, d.url("/v1/jobs/"+id+"/events"), first)
	defer s.close()
	for {
		ev, ok := s.next(t)
		if !ok {
			t.Fatal("resumed stream ended without done")
		}
		if ev.event == "done" {
			break
		}
		if ev.event != "status" {
			t.Fatalf("unexpected event %q", ev.event)
		}
		seq, err := strconv.ParseUint(ev.id, 10, 64)
		if err != nil {
			t.Fatalf("frame id %q: %v", ev.id, err)
		}
		seqs = append(seqs, seq)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("event sequence %v is not gap-free 1..N", seqs)
		}
	}
	var last JobStatus
	if code := doJSON(t, http.MethodGet, d.url("/v1/jobs/"+id), nil, &last); code != http.StatusOK || last.State != StateDone {
		t.Fatalf("job %s: HTTP %d state %s", id, code, last.State)
	}
	pollDone(t, d, blocker)
}

// TestAnalysisSurvivesEvictionAndRestart is the durability proof: a
// job's analysis stays resolvable by its original ID after retention
// evicts the job record, and again after the daemon restarts on the
// same cache — through the job journal written beside the cache file.
func TestAnalysisSurvivesEvictionAndRestart(t *testing.T) {
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "results.json")
	d := startDaemonRetain(t, cachePath, 2)

	id := submitHTTP(t, d, JobSpec{Label: "durable", Config: phaseCfg(440)})[0].ID
	pollDone(t, d, id)
	want := fetchAnalysisJSON(t, d, id)

	// Push the job out of the retained table.
	for seed := uint64(441); seed < 444; seed++ {
		pollDone(t, d, submitHTTP(t, d, JobSpec{Config: tinyCfg(seed)})[0].ID)
	}
	if code := doJSON(t, http.MethodGet, d.url("/v1/jobs/"+id), nil, nil); code != http.StatusNotFound {
		t.Fatalf("evicted job still queryable: HTTP %d", code)
	}
	if got := fetchAnalysisJSON(t, d, id); !bytes.Equal(got, want) {
		t.Error("analysis after eviction differs from the original report")
	}
	assertStreamReplays(t, d, id, want)
	d.stop()

	// Restart on the same cache: the journal must resolve the old ID and
	// new IDs must not collide with journaled ones.
	d2 := startDaemonRetain(t, cachePath, 2)
	if got := fetchAnalysisJSON(t, d2, id); !bytes.Equal(got, want) {
		t.Error("analysis after restart differs from the original report")
	}
	assertStreamReplays(t, d2, id, want)

	met := d2.m.Metrics()
	if met.Analysis == nil || met.Analysis.Reports == 0 {
		t.Error("restarted daemon lost the fleet analysis aggregates")
	}
	fresh := submitHTTP(t, d2, JobSpec{Config: tinyCfg(450)})[0].ID
	var oldN, newN uint64
	fmt.Sscanf(id, "job-%d", &oldN)
	fmt.Sscanf(fresh, "job-%d", &newN)
	if newN <= oldN {
		t.Errorf("restarted daemon reissued ID %s at or below journaled %s", fresh, id)
	}
	pollDone(t, d2, fresh)
}

// startDaemonRetain is startDaemon with an explicit retention bound.
func startDaemonRetain(t *testing.T, cachePath string, retain int) *testDaemon {
	t.Helper()
	cache, err := sweep.OpenCache(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 16, Cache: cache, Retention: retain})
	d := &testDaemon{ts: httptest.NewServer(New(m)), m: m}
	t.Cleanup(d.stop)
	return d
}

// assertStreamReplays checks the stream endpoint serves a terminal
// replay for id that reconstructs byte-identically to want.
func assertStreamReplays(t *testing.T, d *testDaemon, id string, want []byte) {
	t.Helper()
	s := openSSE(t, d.url("/v1/analysis/"+id+"/stream"), 0)
	defer s.close()
	acc := analysis.NewStreamAccumulator()
	for {
		ev, ok := s.next(t)
		if !ok {
			t.Fatal("terminal stream ended without done")
		}
		if ev.event == "done" {
			break
		}
		if ev.event == "error" {
			t.Fatalf("stream error frame: %s", ev.data)
		}
		applyFrame(t, acc, ev)
	}
	rep, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("terminal stream replay differs from the stored report")
	}
}

// TestMetricsPerWorkerPhases checks the per-worker /metrics breakdown:
// a phase-profiled flight creates a "local" row whose phase block
// carries every profiled phase with nonzero calls, and a duplicate
// submission served from the cache creates a "cache" row without
// claiming a second analysis report.
func TestMetricsPerWorkerPhases(t *testing.T) {
	d := startDaemon(t, filepath.Join(t.TempDir(), "results.json"), 1, 16)
	cfg := phaseCfg(460)
	pollDone(t, d, submitHTTP(t, d, JobSpec{Config: cfg})[0].ID)
	pollDone(t, d, submitHTTP(t, d, JobSpec{Config: cfg})[0].ID) // cache hit

	var met Metrics
	if code := doJSON(t, http.MethodGet, d.url("/metrics"), nil, &met); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	byName := map[string]WorkerMetrics{}
	for _, w := range met.Workers {
		byName[w.Name] = w
	}
	local, ok := byName["local"]
	if !ok {
		t.Fatalf("no local worker row in %+v", met.Workers)
	}
	if local.Flights != 1 || local.AnalysisReports != 1 {
		t.Errorf("local: flights=%d reports=%d, want 1/1", local.Flights, local.AnalysisReports)
	}
	for p := prof.Phase(0); p < prof.NumPhases; p++ {
		pm, ok := local.Phases[p.String()]
		if !ok {
			t.Errorf("local phases missing %s: %+v", p, local.Phases)
			continue
		}
		if pm.Calls == 0 {
			t.Errorf("phase %s has zero calls", p)
		}
		if pm.Samples > 0 && (pm.AvgNs <= 0 || pm.EstimatedMs <= 0) {
			t.Errorf("phase %s sampled but avg/estimate not positive: %+v", p, pm)
		}
	}
	cacheRow, ok := byName["cache"]
	if !ok {
		t.Fatalf("no cache worker row in %+v", met.Workers)
	}
	if cacheRow.Flights != 1 || cacheRow.CacheHits != 1 {
		t.Errorf("cache: flights=%d hits=%d, want 1/1", cacheRow.Flights, cacheRow.CacheHits)
	}
}

// TestStreamNoAnalysisJob: streaming a job whose config never enabled
// analysis fails fast with a 404 instead of hanging.
func TestStreamNoAnalysisJob(t *testing.T) {
	d := startDaemon(t, "", 1, 16)
	id := submitHTTP(t, d, JobSpec{Config: tinyCfg(470)})[0].ID
	pollDone(t, d, id)

	req, err := http.NewRequest(http.MethodGet, d.url("/v1/analysis/"+id+"/stream"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("analysis-less stream: HTTP %d, want 404", resp.StatusCode)
	}

	// Unknown job is a 404 too.
	resp2, err := http.Get(d.url("/v1/analysis/job-999999/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream: HTTP %d, want 404", resp2.StatusCode)
	}
}
