// Package client is the Go client of the ccsimd daemon: typed wrappers
// over the /v1 JSON API plus RunSweep, a drop-in remote counterpart of
// sweep.Run used by `ccsim -server` to execute on a shared daemon
// instead of the local machine.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Client talks to one ccsimd daemon.
type Client struct {
	base   string
	http   *http.Client
	stream *http.Client // no overall timeout: carries SSE streams

	// PollInterval is the status-poll period of Wait and RunSweep
	// (default 250ms). It is also the base of the retry backoff.
	PollInterval time.Duration

	// MaxBackoff caps the exponential retry/reconnect backoff of
	// RunJob, RunSweep, and StreamAnalysis (default 5s). The daemon's
	// Retry-After hint is always honored as a floor, never clipped.
	MaxBackoff time.Duration

	// Token, when set, is sent as a bearer credential (Authorization:
	// Bearer <token>) on every request — required against daemons with a
	// tenant registry (ccsimd -tenants).
	Token string

	// rootMu guards the lazily probed trace-root advertisement.
	rootMu    sync.Mutex
	root      string
	rootKnown bool
}

// SetTransport replaces the underlying HTTP transport of both the
// request and streaming clients. Test support: fault-injection
// harnesses wrap the default transport to drop, stall, or corrupt
// traffic at the wire level.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.http.Transport = rt
	c.stream.Transport = rt
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8344"). The URL may include a path prefix; a
// missing scheme defaults to http. Requests carry a generous overall
// timeout so a daemon that vanishes without closing its connections
// (power loss, network partition) surfaces as an error instead of
// hanging Wait/RunSweep forever; none of the client's calls stream.
func New(baseURL string) *Client {
	base := strings.TrimSuffix(baseURL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base: base,
		http: &http.Client{Timeout: 2 * time.Minute},
		// SSE streams outlive any sensible overall timeout; ctx
		// cancellation and server-side completion bound them instead.
		stream:       &http.Client{},
		PollInterval: 250 * time.Millisecond,
	}
}

// Base returns the normalized daemon URL this client talks to.
func (c *Client) Base() string { return c.base }

// TraceRoot returns the daemon's advertised shared trace directory (""
// when it has none), probed from /healthz once and cached for the
// client's lifetime.
func (c *Client) TraceRoot(ctx context.Context) (string, error) {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	if c.rootKnown {
		return c.root, nil
	}
	//lint:allow lockio single-flight probe: rootMu exists to let exactly one caller hit /healthz while the rest wait for the cached answer; nothing else ever takes it
	h, err := c.Health(ctx)
	if err != nil {
		return "", err
	}
	c.root = h.TraceRoot
	c.rootKnown = true
	return c.root, nil
}

// ValidateTraceFiles reports whether cfg may run on a daemon
// advertising traceRoot as its shared trace directory. Trace paths are
// opened on the daemon's filesystem, so a config referencing files the
// daemon cannot see would fail remotely — or, worse, silently read a
// different file that happens to exist at that path on the server.
// Only absolute paths under the advertised root are allowed; a daemon
// with no root accepts no trace-file configs at all.
func ValidateTraceFiles(cfg sim.Config, traceRoot string) error {
	for _, p := range cfg.TraceFiles {
		if p == "" {
			continue
		}
		if traceRoot == "" {
			return fmt.Errorf("client: config reads trace file %s, but the daemon advertises no shared trace root: the path would be opened on the daemon's filesystem, not this one — run locally, or start the daemon with -trace-root over a shared directory: %w", p, server.ErrIneligible)
		}
		if !filepath.IsAbs(p) {
			return fmt.Errorf("client: trace file %s is a relative path, which resolves against the daemon's working directory — use an absolute path under the shared trace root %s: %w", p, traceRoot, server.ErrIneligible)
		}
		rel, err := filepath.Rel(traceRoot, filepath.Clean(p))
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return fmt.Errorf("client: trace file %s is outside the daemon's shared trace root %s: %w", p, traceRoot, server.ErrIneligible)
		}
	}
	return nil
}

// checkTraceFiles rejects trace-driven specs the daemon cannot faithfully
// execute, probing the daemon's trace-root advertisement on first need.
func (c *Client) checkTraceFiles(ctx context.Context, specs []server.JobSpec) error {
	probed := false
	var root string
	for i, spec := range specs {
		if !hasTraceFiles(spec.Config) {
			continue
		}
		if !probed {
			var err error
			if root, err = c.TraceRoot(ctx); err != nil {
				return err
			}
			probed = true
		}
		if err := ValidateTraceFiles(spec.Config, root); err != nil {
			return fmt.Errorf("client: job %d (%s): %w", i, spec.Label, err)
		}
	}
	return nil
}

// hasTraceFiles reports whether any core of cfg replays a trace file.
func hasTraceFiles(cfg sim.Config) bool {
	for _, p := range cfg.TraceFiles {
		if p != "" {
			return true
		}
	}
	return false
}

// Submit sends a batch of specs and returns the accepted job statuses
// (IDs included) in submission order. Trace-driven configs are rejected
// client-side unless the daemon advertises a shared trace root covering
// their paths (see ValidateTraceFiles).
func (c *Client) Submit(ctx context.Context, specs []server.JobSpec) ([]server.JobStatus, error) {
	if err := c.checkTraceFiles(ctx, specs); err != nil {
		return nil, err
	}
	// An anonymous body, not server.SubmitRequest: its embedded
	// single-spec fields would serialize a zero sim.Config alongside
	// "jobs" on every request.
	body := struct {
		Jobs []server.JobSpec `json:"jobs"`
	}{Jobs: specs}
	var resp server.SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Job fetches one job's status, result included when done.
func (c *Client) Job(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists jobs on the daemon (statuses only, no result payloads).
// With ids it returns only those jobs, omitting evicted/unknown IDs;
// without arguments it lists every retained job.
func (c *Client) Jobs(ctx context.Context, ids ...string) ([]server.JobStatus, error) {
	path := "/v1/jobs"
	if len(ids) > 0 {
		path += "?ids=" + url.QueryEscape(strings.Join(ids, ","))
	}
	var resp server.SubmitResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp.Jobs, err
}

// Cancel requests cancellation and returns the resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Result fetches a result by its content-address key.
func (c *Client) Result(ctx context.Context, key string) (sim.Result, error) {
	var res sim.Result
	err := c.do(ctx, http.MethodGet, "/v1/results/"+url.PathEscape(key), nil, &res)
	return res, err
}

// Analysis fetches a done job's perf-analyzer report. The daemon
// answers 404 (an *APIError here) when the job is unknown, not
// finished yet, or ran with analysis disabled.
func (c *Client) Analysis(ctx context.Context, id string) (*analysis.Report, error) {
	var rep analysis.Report
	if err := c.do(ctx, http.MethodGet, "/v1/analysis/"+url.PathEscape(id), nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// StreamAnalysis follows a job's live analysis stream
// (GET /v1/analysis/{id}/stream), invoking onBatch for every batch —
// catch-up snapshot, live epoch deltas, final summary — until the
// daemon signals completion. afterSeq resumes after an already
// processed batch sequence (0 streams from the start). A connection
// dropped mid-stream reconnects automatically with Last-Event-ID set
// to the last delivered sequence, so onBatch sees no gaps: applying
// every batch to an analysis.StreamAccumulator reconstructs the job's
// final report byte-identically. A failed flight surfaces as the
// stream's error frame, returned after the frames received so far.
func (c *Client) StreamAnalysis(ctx context.Context, id string, afterSeq uint64, onBatch func(analysis.StreamBatch)) error {
	last := afterSeq
	attempt := 0
	for {
		complete, progressed, err := c.streamAnalysisOnce(ctx, id, &last, onBatch)
		if complete || (err != nil && !progressed) {
			// Finished, or failed without receiving a single frame (a
			// dead daemon is not retried; a dropped stream is).
			return err
		}
		if progressed {
			attempt = 0 // the stream is alive; reconnect promptly
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoff(attempt, err)):
		}
		attempt++
	}
}

// streamAnalysisOnce runs one SSE connection. It reports whether the
// stream reached its done frame and whether any frame arrived (a
// progressed-but-incomplete connection is retried by the caller with
// the updated cursor).
func (c *Client) streamAnalysisOnce(ctx context.Context, id string, last *uint64, onBatch func(analysis.StreamBatch)) (complete, progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/analysis/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return false, false, fmt.Errorf("client: building stream request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(*last))
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return false, false, fmt.Errorf("client: analysis stream %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := decodeAPIError(resp)
		return false, false, fmt.Errorf("client: analysis stream %s: %w", id, apiErr)
	}

	var streamErr error
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "epochs", "summary":
				var b analysis.StreamBatch
				if err := json.Unmarshal([]byte(data), &b); err != nil {
					return false, progressed, fmt.Errorf("client: decoding stream batch: %w", err)
				}
				progressed = true
				*last = b.Seq
				onBatch(b)
			case "error":
				var e struct {
					Error string `json:"error"`
				}
				if json.Unmarshal([]byte(data), &e) == nil && e.Error != "" {
					streamErr = fmt.Errorf("client: job %s analysis stream: %s", id, e.Error)
				}
			case "done":
				return true, true, streamErr
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return false, progressed, fmt.Errorf("client: analysis stream %s interrupted: %w", id, err)
	}
	if ctx.Err() != nil {
		return false, progressed, ctx.Err()
	}
	return false, progressed, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (server.Health, error) {
	var h server.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches /metrics.
func (c *Client) Metrics(ctx context.Context) (server.Metrics, error) {
	var m server.Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Wait polls until the job reaches a terminal state and returns it.
func (c *Client) Wait(ctx context.Context, id string) (server.JobStatus, error) {
	ticker := time.NewTicker(c.pollInterval())
	defer ticker.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// RunJob executes one job on the daemon to a terminal state and
// returns its final status, result included. It is the unit of work of
// fleet execution (internal/dispatch, ccsimd -peers): submission backs
// off while the daemon's queue is full, a job evicted from the
// retention window falls back to the content-addressed result cache,
// and cancelling ctx cancels the remote job best-effort. A job that
// finishes failed or canceled returns a *server.RemoteJobError so
// callers can tell "the simulation failed" (not retryable elsewhere)
// from "the daemon is unreachable" (retryable).
func (c *Client) RunJob(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	var sub server.JobStatus
	for attempt := 0; ; attempt++ {
		sts, err := c.Submit(ctx, []server.JobSpec{spec})
		if err == nil {
			sub = sts[0]
			break
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			return server.JobStatus{}, err
		}
		select { // queue full or rate-limited: wait for capacity/tokens
		case <-ctx.Done():
			return server.JobStatus{}, ctx.Err()
		case <-time.After(c.backoff(attempt, err)):
		}
	}

	st, err := c.Wait(ctx, sub.ID)
	st, err = c.recoverEvicted(ctx, sub, st, err)
	if err != nil {
		if ctx.Err() != nil {
			// Don't abandon the job on the shared daemon: cancel it so
			// the fleet stops spending cycles on a result nobody wants.
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			_, _ = c.Cancel(cctx, sub.ID)
			cancel()
		}
		return st, err
	}
	switch st.State {
	case server.StateDone:
		return st, nil
	default:
		return st, &server.RemoteJobError{
			Endpoint: c.base,
			JobID:    sub.ID,
			State:    st.State,
			Message:  st.Error,
			Reason:   st.Reason,
		}
	}
}

// recoverEvicted passes through the outcome (st, err) of asking the
// daemon about the submitted job sub, except when the daemon no longer
// retains the job (404) and sub carries a content address: then the
// job's result comes from the daemon's cache, so runs survive eviction
// from its bounded retention window. The fallback trades fidelity for
// liveness: a job that failed or was canceled and then evicted either
// reports as a cached success (a bit-identical result exists, which is
// what the caller wanted) or surfaces a generic eviction error in place
// of the original failure reason, which eviction has discarded.
func (c *Client) recoverEvicted(ctx context.Context, sub, st server.JobStatus, err error) (server.JobStatus, error) {
	var apiErr *APIError
	if err == nil || !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || sub.Key == "" {
		return st, err
	}
	res, rerr := c.Result(ctx, sub.Key)
	if rerr != nil {
		return st, fmt.Errorf("client: job %s evicted and its result is not cached: %w", sub.ID, err)
	}
	st = sub
	st.State = server.StateDone
	st.Cached = true
	st.Result = &res
	return st, nil
}

// Peer adapts a Client to the server.Remote interface: one daemon of a
// server.Fleet, holding Slots concurrent executions — a ccsimd -peers
// backend, or an endpoint of an internal/dispatch campaign.
type Peer struct {
	*Client
	slots int
}

// NewPeer wraps the daemon at baseURL as a fleet backend contributing
// slots concurrent executions (at least 1).
func NewPeer(baseURL string, slots int) *Peer {
	if slots < 1 {
		slots = 1
	}
	return &Peer{Client: New(baseURL), slots: slots}
}

// Name implements server.Remote.
func (p *Peer) Name() string { return p.Base() }

// Slots implements server.Remote.
func (p *Peer) Slots() int { return p.slots }

// Run implements server.Remote, mapping the daemon's refusals onto the
// error kinds the fleet classifies: HTTP 400 (the config is invalid)
// onto server.ErrPermanent, and an admission shed (503
// deadline_unmeetable) onto server.ErrDeadlineExceeded.
func (p *Peer) Run(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	st, err := p.RunJob(ctx, spec)
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Status == http.StatusBadRequest:
			err = fmt.Errorf("%w (%w)", err, server.ErrPermanent)
		case apiErr.Code == server.ErrCodeDeadlineUnmeetable:
			err = fmt.Errorf("%w (%w)", err, server.ErrDeadlineExceeded)
		}
	}
	return st, err
}

// PeerProbe is one endpoint's health-probe outcome.
type PeerProbe struct {
	Endpoint string
	Peer     *Peer // nil when the probe failed
	Health   server.Health
	Err      error
}

// ProbePeers health-checks endpoints concurrently, each within timeout,
// and wraps every daemon that answered as a Peer sized by its
// advertised worker count and authenticating with token — the fleet
// set-up shared by ccsimd -peers and internal/dispatch. Results come
// back in endpoint order.
func ProbePeers(ctx context.Context, endpoints []string, token string, timeout time.Duration) []PeerProbe {
	out := make([]PeerProbe, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewPeer(ep, 1)
			p.Token = token
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			h, err := p.Health(pctx)
			out[i] = PeerProbe{Endpoint: ep, Health: h, Err: err}
			if err == nil {
				p.slots = max(h.Workers, 1)
				out[i].Peer = p
			}
		}()
	}
	wg.Wait()
	return out
}

// RunSweep executes jobs on the daemon and returns results in input
// order, mirroring sweep.Run's contract: the first failure (or a
// server-side cancellation) aborts with a *sweep.JobError, and
// progress, when non-nil, receives one event per finished job with
// monotonically increasing Done. On error or context cancellation the
// outstanding remote jobs are canceled best-effort.
func (c *Client) RunSweep(ctx context.Context, jobs []sweep.Job, progress func(sweep.Event)) ([]sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	specs := make([]server.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = server.JobSpec{Label: j.Label, Config: j.Config}
	}

	results := make([]sim.Result, len(jobs))
	pending := map[int]server.JobStatus{} // input index -> submitted job
	abort := func(index int, cause error) ([]sim.Result, error) {
		for _, st := range pending {
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			_, _ = c.Cancel(cctx, st.ID)
			cancel()
		}
		if index < 0 {
			return results, cause
		}
		return results, &sweep.JobError{Index: index, Label: jobs[index].Label, Err: cause}
	}

	// Submit in chunks, shrinking and backing off while the daemon's
	// bounded queue is full, so sweeps larger than the queue depth
	// still complete: capacity frees as earlier chunks finish.
	chunk := 16
	attempt := 0
	for start := 0; start < len(specs); {
		size := chunk
		if rest := len(specs) - start; size > rest {
			size = rest
		}
		sts, err := c.Submit(ctx, specs[start:start+size])
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
				// A Retry-After hint means a rate limit, which shrinking
				// cannot fix — only waiting can. Without one the queue is
				// full: shrink the batch first, then wait for capacity.
				if apiErr.RetryAfter == 0 && size > 1 {
					chunk = size / 2
					continue
				}
				select {
				case <-ctx.Done():
					return abort(-1, ctx.Err())
				case <-time.After(c.backoff(attempt, err)):
				}
				attempt++
				continue
			}
			return abort(-1, err)
		}
		attempt = 0
		for i, st := range sts {
			pending[start+i] = st
		}
		start += size
		if chunk < 16 {
			// Recover batch size after a transient queue-full, capped
			// so non-power-of-two shrinks never overshoot the design
			// maximum (7 -> 14 -> 16, not 28).
			if chunk *= 2; chunk > 16 {
				chunk = 16
			}
		}
	}

	ticker := time.NewTicker(c.pollInterval())
	defer ticker.Stop()
	done := 0
	for len(pending) > 0 {
		// One ID-filtered list call per tick detects terminal jobs;
		// only those get a detail fetch for the result — O(1 +
		// finished) requests per tick instead of one per outstanding
		// job, and no payload for other clients' jobs.
		ids := make([]string, 0, len(pending))
		for _, st := range pending {
			ids = append(ids, st.ID)
		}
		listed, err := c.Jobs(ctx, ids...)
		if err != nil {
			return abort(-1, err)
		}
		byID := make(map[string]server.JobStatus, len(listed))
		for _, st := range listed {
			byID[st.ID] = st
		}
		for i := 0; i < len(jobs); i++ {
			sub, ok := pending[i]
			if !ok {
				continue
			}
			st, terminal, err := c.finishedStatus(ctx, sub, byID)
			if err != nil {
				return abort(-1, err)
			}
			if !terminal {
				continue
			}
			delete(pending, i)
			done++
			ev := sweep.Event{
				Index:   i,
				Total:   len(jobs),
				Done:    done,
				Label:   jobs[i].Label,
				Key:     st.Key,
				Cached:  st.Cached,
				Elapsed: time.Duration(st.ElapsedMs * float64(time.Millisecond)),
			}
			switch {
			case st.State == server.StateDone && st.Result != nil:
				results[i] = *st.Result
			case st.State == server.StateCanceled:
				ev.Err = fmt.Errorf("client: job %s canceled on the server: %s", sub.ID, st.Error)
			default:
				ev.Err = fmt.Errorf("client: job %s failed: %s", sub.ID, st.Error)
			}
			if progress != nil {
				progress(ev)
			}
			if ev.Err != nil {
				return abort(i, ev.Err)
			}
		}
		if len(pending) == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return abort(-1, ctx.Err())
		case <-ticker.C:
		}
	}
	return results, nil
}

// finishedStatus resolves one outstanding job against the latest
// listing: still-live jobs return terminal=false; terminal ones are
// detail-fetched for the result, falling back to the cache for jobs
// evicted meanwhile (recoverEvicted; the key came with the submit
// response), so long sweeps survive eviction races.
func (c *Client) finishedStatus(ctx context.Context, sub server.JobStatus, byID map[string]server.JobStatus) (server.JobStatus, bool, error) {
	if listed, ok := byID[sub.ID]; ok && !listed.State.Terminal() {
		return server.JobStatus{}, false, nil
	}
	st, err := c.Job(ctx, sub.ID)
	if st, err = c.recoverEvicted(ctx, sub, st, err); err != nil {
		return server.JobStatus{}, false, err
	}
	return st, true, nil
}

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 250 * time.Millisecond
}

// do performs one JSON round trip. Non-2xx responses decode the
// {"error": ...} body into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	// Propagate the caller's deadline so the daemon can enforce it
	// queue-side: a job that cannot start before the client gives up
	// fails fast instead of occupying a scheduler slot.
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("client: %s %s: %w", method, path, decodeAPIError(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int
	Message string
	// Code is the daemon's machine-readable error code when it sent one
	// (e.g. server.ErrCodeDeadlineUnmeetable for admission-time load
	// shedding); "" otherwise.
	Code string
	// RetryAfter is the daemon's Retry-After hint on 429 responses
	// (zero when absent): how long the tenant's token bucket needs to
	// admit one more submission.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.Status, e.Message)
}

// decodeAPIError reads a non-2xx response into an *APIError, decoding
// the {"error": ...} body and the Retry-After header when present.
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(blob, &e) == nil && e.Error != "" {
		apiErr.Message = e.Error
		apiErr.Code = e.Code
	} else {
		apiErr.Message = strings.TrimSpace(string(blob))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// backoff picks the wait before retry number attempt (0-based):
// exponential with full jitter — uniform in (0, pollInterval·2^attempt],
// capped at MaxBackoff — so a fleet of clients hammering a saturated
// daemon decorrelates instead of retrying in lockstep. The daemon's
// Retry-After hint is a floor: when the server names the wait it needs,
// jitter is added on top of it, never subtracted.
func (c *Client) backoff(attempt int, err error) time.Duration {
	base := c.pollInterval()
	ceil := c.MaxBackoff
	if ceil <= 0 {
		ceil = 5 * time.Second
	}
	if ceil < base {
		ceil = base
	}
	d := base
	for i := 0; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	d = time.Duration(1 + rand.Int63n(int64(d))) // full jitter: (0, d]
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		// Retry-After is the server's admission estimate; retrying
		// sooner is guaranteed to be rejected again.
		floor := apiErr.RetryAfter
		if d < floor {
			d = floor + time.Duration(rand.Int63n(int64(base)+1))
		}
	}
	return d
}
