package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/version"
)

// Server exposes a Manager as a JSON HTTP API:
//
//	POST   /v1/jobs            submit one config or a batch -> job IDs
//	GET    /v1/jobs            list all jobs (no result payloads)
//	GET    /v1/jobs/{id}       status + result when done
//	GET    /v1/jobs/{id}/events  Server-Sent Events lifecycle stream
//	                           (Last-Event-ID resume)
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/results         list stored content-address keys
//	GET    /v1/results/{key}   content-addressed result lookup
//	GET    /v1/analysis/{id}   perf-analyzer report of a done job
//	                           (alias: /analysis/{id}); evicted and
//	                           pre-restart job IDs resolve through the
//	                           durable job journal + result cache
//	GET    /v1/analysis/{id}/stream  Server-Sent Events live epoch
//	                           stream (Last-Event-ID resume)
//	GET    /healthz            liveness + version (200 even while draining)
//	GET    /readyz             readiness (503 while draining)
//	GET    /metrics            queue/dedup/cache counters + fleet
//	                           perf-analyzer aggregates
//	GET    /dashboard          embedded live HTML dashboard (campaign
//	                           progress, throughput, row-hit sparklines)
//
// Both SSE routes serve a job-scoped feed (sse.go) through one loop,
// serveSSE, with one resume and lag rule.
type Server struct {
	manager *Manager
	mux     *http.ServeMux
	started time.Time
}

// New wires the API around m. With a tenant Registry configured on the
// manager, every /v1/* and /analysis/* route requires a bearer token
// (Authorization: Bearer <token>); /healthz, /readyz, /metrics, and
// /dashboard stay open for probes and operators. Without a registry the
// auth layer is a no-op and the API behaves exactly as before.
func New(m *Manager) *Server {
	s := &Server{manager: m, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.authed(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.authed(s.handleListJobs))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.authed(s.handleJob))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.authed(s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.authed(serveSSE(s.manager.eventFeed, statusFrame)))
	s.mux.HandleFunc("GET /v1/results", s.authed(s.handleResultIndex))
	s.mux.HandleFunc("GET /v1/results/{key}", s.authed(s.handleResult))
	s.mux.HandleFunc("GET /v1/analysis/{id}", s.authed(s.handleAnalysis))
	s.mux.HandleFunc("GET /analysis/{id}", s.authed(s.handleAnalysis))
	s.mux.HandleFunc("GET /v1/analysis/{id}/stream", s.authed(serveSSE(s.manager.analysisFeed, batchFrame)))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// tenantKey carries the authenticated Tenant in the request context.
type tenantKey struct{}

// caller returns the authenticated tenant of an authed request (the
// zero Tenant in open mode).
func caller(r *http.Request) Tenant {
	t, _ := r.Context().Value(tenantKey{}).(Tenant)
	return t
}

// authed authenticates the request against the manager's tenant
// registry before invoking h. Open mode (nil registry) passes everyone
// through as the anonymous tenant.
func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.manager.Registry().Authenticate(r.Header.Get("Authorization"))
		if err != nil {
			if errors.Is(err, ErrUnauthenticated) {
				w.Header().Set("WWW-Authenticate", "Bearer")
				writeError(w, http.StatusUnauthorized, err)
				return
			}
			writeError(w, http.StatusForbidden, err)
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, t)))
	}
}

// SubmitRequest is the POST /v1/jobs body: either a batch under
// "jobs", or the fields of a single JobSpec inlined at the top level.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
	JobSpec
}

// SubmitResponse returns one status (with ID) per accepted job, in
// submission order.
type SubmitResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := caller(r)
	// Rate limit before reading the body: an over-rate tenant costs one
	// token-bucket check, not a JSON decode. Each POST spends one token
	// regardless of batch size — batching is the encouraged fast path.
	if ok, retryAfter := s.manager.Registry().AllowSubmit(t.Name); !ok {
		qe := &QuotaError{Tenant: t.Name, Quota: "rate", RetryAfter: retryAfter}
		writeQuotaError(w, qe)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding submission: %w", err))
		return
	}
	specs := req.Jobs
	if len(specs) == 0 {
		if len(req.Config.Workloads) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: submission needs a config or a jobs array"))
			return
		}
		specs = []JobSpec{req.JobSpec}
	}
	// Deadline propagation: the client stamps its context deadline on
	// the request; specs without an explicit deadline inherit it, so the
	// manager can enforce the caller's timeout queue-side (fail fast,
	// shed unmeetable load) instead of simulating for a caller that has
	// already given up.
	if raw := r.Header.Get(DeadlineHeader); raw != "" {
		if ms, perr := strconv.ParseInt(raw, 10, 64); perr == nil && ms > 0 {
			for i := range specs {
				if specs[i].DeadlineMs == 0 {
					specs[i].DeadlineMs = ms
				}
			}
		}
	}
	statuses, err := s.manager.Submit(t, specs)
	if err != nil {
		var qe *QuotaError
		if errors.As(err, &qe) {
			writeQuotaError(w, qe)
			return
		}
		var de *DeadlineError
		if errors.As(err, &de) {
			// 503 + structured code: the load is unmeetable *here* — a
			// fleet dispatcher should try a less loaded peer, not mark
			// this daemon dead or retry the same queue.
			writeErrorCode(w, http.StatusServiceUnavailable, ErrCodeDeadlineUnmeetable, err)
			return
		}
		writeError(w, submitStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{Jobs: statuses})
}

// submitStatus maps manager submission errors to HTTP codes.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeQuotaError answers 429 with a Retry-After header when the quota
// knows how long the caller must back off (rate limits do; queue-state
// quotas clear on job completion, which has no deadline).
func writeQuotaError(w http.ResponseWriter, qe *QuotaError) {
	if qe.RetryAfter > 0 {
		secs := int(math.Ceil(qe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, http.StatusTooManyRequests, qe)
}

// handleListJobs returns all retained jobs, or — with ?ids=a,b,c —
// only the named ones (unknown/evicted IDs are silently omitted, so
// pollers can detect eviction as absence).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	var ids []string
	if raw := r.URL.Query().Get("ids"); raw != "" {
		ids = strings.Split(raw, ",")
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Jobs: s.manager.ListJobs(caller(r), ids)})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.manager.Job(caller(r), r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.manager.Cancel(caller(r), r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// ResultIndex is the GET /v1/results body: every content-address key
// in the persistent store, each fetchable via /v1/results/{key}.
type ResultIndex struct {
	Keys []string `json:"keys"`
}

func (s *Server) handleResultIndex(w http.ResponseWriter, r *http.Request) {
	idx := ResultIndex{Keys: []string{}}
	if cache := s.manager.Cache(); cache != nil {
		idx.Keys = cache.Keys()
	}
	writeJSON(w, http.StatusOK, idx)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.manager.Cache() == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no persistent result cache configured"))
		return
	}
	res, ok := s.manager.Cache().Lookup(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no result for key %s", r.PathValue("key")))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleAnalysis serves a done job's perf-analyzer report; evicted and
// pre-restart job IDs resolve through the durable journal. 404 covers
// every absence uniformly: unknown or invisible job, not finished yet,
// or a config that never enabled analysis — the error text tells the
// caller's own jobs apart.
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	rep, err := s.manager.Analysis(caller(r), r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// Health is the /healthz body. Workers and TraceRoot let fleet
// dispatchers (internal/dispatch, ccsimd -peers) weight assignment by
// capacity and decide whether trace-file configs may be submitted here.
type Health struct {
	Status  string  `json:"status"`
	Version string  `json:"version"`
	UptimeS float64 `json:"uptime_s"`
	// Workers is the daemon's local simulation concurrency.
	Workers int `json:"workers"`
	// TraceRoot, when non-empty, is a directory the daemon shares with
	// its clients: trace-file configs whose absolute paths live under
	// it resolve to the same bytes on both sides.
	TraceRoot string `json:"trace_root,omitempty"`
	// Storage is "degraded" while the result cache or job journal runs
	// memory-only after disk write failures — a warning, not an outage:
	// the daemon keeps completing jobs and re-probes the disk. /readyz
	// still answers 200 so load balancers keep routing here.
	Storage string `json:"storage,omitempty"`
}

// health builds the shared /healthz//readyz body.
func (s *Server) health() Health {
	h := Health{
		Status:    "ok",
		Version:   version.String(),
		UptimeS:   time.Since(s.started).Seconds(),
		Workers:   s.manager.Workers(),
		TraceRoot: s.manager.TraceRoot(),
	}
	if s.manager.Metrics().Draining {
		h.Status = "draining"
	}
	if s.manager.StorageDegraded() {
		h.Storage = "degraded"
	}
	return h
}

// handleHealth reports liveness: always 200 while the process serves
// HTTP, including during a drain — a liveness probe must not kill the
// daemon while it finishes running simulations. The body still says
// "draining" so humans see the state. Routing decisions belong on
// /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReady reports readiness: 503 while draining, when every new
// submission is rejected, so load balancers stop routing clients here
// during the shutdown grace window without the liveness probe killing
// in-flight work.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Metrics())
}

// apiError is the JSON error body of every non-2xx response. Code,
// when present, is a stable machine-readable classifier (e.g.
// ErrCodeDeadlineUnmeetable) so clients branch on it instead of
// parsing the human-readable message.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// writeErrorCode is writeError with a structured error code attached.
func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), Code: code})
}
