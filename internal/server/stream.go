package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/analysis"
)

// errNoAnalysis answers analysis requests for jobs that never carried a
// report (HTTP 404 at the handler layer).
var errNoAnalysis = errors.New("server: job carries no analysis report (submit with config.Analysis.Enabled)")

// analysisBroker fans one flight's live analysis stream out to any
// number of SSE subscribers. The collector emits batches on the
// simulation goroutine (flight-side, via ingest); the broker folds them
// into a last-write-wins accumulator so late subscribers catch up with
// a single snapshot batch, and forwards them to current subscribers.
//
// Deltas are never re-sent, so a subscriber that cannot keep up is cut
// off (its channel closed) instead of being handed a gap; the SSE
// handler resubscribes with its last seen sequence number and receives
// a fresh snapshot. After finish the accumulator is dropped and the
// final report serves all future subscribers, so a terminal job costs
// one *Report (which the job table pins anyway), not a bucket map.
type analysisBroker struct {
	mu      sync.Mutex
	acc     *analysis.StreamAccumulator
	seq     uint64 // last ingested (or synthesized) batch sequence
	subs    map[int]chan analysis.StreamBatch
	nextSub int
	done    bool
	final   *analysis.Report
	err     error
}

func newAnalysisBroker() *analysisBroker {
	return &analysisBroker{
		acc:  analysis.NewStreamAccumulator(),
		subs: map[int]chan analysis.StreamBatch{},
	}
}

// ingest is the flight's analysis.StreamSink. It runs on the simulation
// goroutine; the send is non-blocking so a stalled subscriber can never
// stall the simulation.
func (b *analysisBroker) ingest(batch analysis.StreamBatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.acc.Apply(batch)
	b.seq = batch.Seq
	for id, ch := range b.subs {
		select {
		case ch <- batch:
		default:
			close(ch) // lagging: force a resubscribe-with-snapshot
			delete(b.subs, id)
		}
	}
}

// finish seals the broker with the flight's outcome. rep may be nil
// (failed flight, or analysis disabled after all); for flights that
// never streamed live (remote execution, cache hits inside the sweep)
// the synthesized snapshot gets sequence 1.
func (b *analysisBroker) finish(rep *analysis.Report, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.done = true
	b.final = rep
	b.err = err
	b.acc = nil
	if rep != nil && b.seq == 0 {
		b.seq = 1
	}
	for id, ch := range b.subs {
		close(ch)
		delete(b.subs, id)
	}
}

// analysisSub is one subscriber's view of a job's analysis stream.
type analysisSub struct {
	// replay is sent first: at most one snapshot batch bringing the
	// subscriber from afterSeq to the current state.
	replay []analysis.StreamBatch
	// ch carries live batches until the broker seals or the subscriber
	// lags; nil when the stream is already terminal.
	ch     <-chan analysis.StreamBatch
	cancel func()
	// done marks a terminal stream: after replay there is nothing to
	// wait for.
	done bool
	// err is the terminal failure of the flight, if any.
	err error
}

// subscribe registers a consumer whose last processed batch was
// afterSeq (0 for a fresh consumer).
func (b *analysisBroker) subscribe(afterSeq uint64) analysisSub {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		sub := analysisSub{done: true, err: b.err}
		if b.final != nil && afterSeq < b.seq {
			sub.replay = []analysis.StreamBatch{analysis.DeltasFromReport(b.final, b.seq)}
		}
		return sub
	}
	ch := make(chan analysis.StreamBatch, 64)
	id := b.nextSub
	b.nextSub++
	b.subs[id] = ch
	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if c, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(c)
		}
	}
	var replay []analysis.StreamBatch
	if b.seq > 0 && afterSeq < b.seq {
		replay = []analysis.StreamBatch{b.acc.Snapshot(b.seq)}
	}
	return analysisSub{replay: replay, ch: ch, cancel: cancel, done: false}
}

// terminalSub wraps a finished report as a one-batch terminal stream
// (sequence 1), for jobs that resolved without a live broker: cache
// hits at submission, and jobs recovered from the journal after a
// restart or retention pruning.
func terminalSub(rep *analysis.Report, afterSeq uint64) analysisSub {
	sub := analysisSub{done: true}
	if afterSeq < 1 {
		sub.replay = []analysis.StreamBatch{analysis.DeltasFromReport(rep, 1)}
	}
	return sub
}

// SubscribeAnalysis opens a subscription to the analysis stream of a
// job caller may see, resuming after batch afterSeq. IDs the job table
// no longer holds fall back to the durable journal + result cache, so
// streams of evicted or pre-restart jobs replay their final report.
// ErrUnknownJob / errNoAnalysis map to 404.
func (m *Manager) SubscribeAnalysis(caller Tenant, id string, afterSeq uint64) (analysisSub, error) {
	m.mu.Lock()
	j := m.visibleLocked(caller, id)
	if j == nil {
		m.mu.Unlock()
		rep, err := m.analysisFromJournal(caller, id)
		if err != nil {
			return analysisSub{}, err
		}
		return terminalSub(rep, afterSeq), nil
	}
	if j.flight != nil && j.flight.stream != nil {
		b := j.flight.stream
		m.mu.Unlock()
		return b.subscribe(afterSeq), nil
	}
	// No broker: the job resolved straight from the cache at submission,
	// or its config never enabled analysis.
	if j.state == StateDone && j.result != nil && j.result.Analysis != nil {
		rep := j.result.Analysis
		m.mu.Unlock()
		return terminalSub(rep, afterSeq), nil
	}
	state := j.state
	m.mu.Unlock()
	if state.Terminal() && state != StateDone {
		return analysisSub{}, fmt.Errorf("server: job %s is %s; it carries no analysis stream", id, state)
	}
	return analysisSub{}, errNoAnalysis
}

// Analysis returns the perf-analyzer report of a done job caller may
// see. IDs the job table no longer holds (restart, retention pruning)
// resolve through the durable journal to the cached result. Every error
// is a 404 at the handler layer: ErrUnknownJob for unknown and
// invisible jobs alike, otherwise the reason a visible job has no
// report.
func (m *Manager) Analysis(caller Tenant, id string) (*analysis.Report, error) {
	m.mu.Lock()
	j := m.visibleLocked(caller, id)
	if j == nil {
		m.mu.Unlock()
		return m.analysisFromJournal(caller, id)
	}
	defer m.mu.Unlock()
	if !j.state.Terminal() {
		return nil, fmt.Errorf("server: job %s is %s; analysis is available once it is done", id, j.state)
	}
	if j.result == nil || j.result.Analysis == nil {
		return nil, fmt.Errorf("server: job %s carries no analysis report (submit with config.Analysis.Enabled)", id)
	}
	return j.result.Analysis, nil
}

// analysisFromJournal resolves a job ID the manager no longer retains
// to its cached analysis report via the durable journal, under the same
// visibility rule as the live table.
func (m *Manager) analysisFromJournal(caller Tenant, id string) (*analysis.Report, error) {
	e, ok := m.journal.lookup(id)
	if !ok || !canSee(m.registry, caller, e.Tenant) {
		return nil, ErrUnknownJob
	}
	if e.State != StateDone || e.Key == "" || m.cache == nil {
		return nil, errNoAnalysis
	}
	res, ok := m.cache.Lookup(e.Key)
	if !ok || res.Analysis == nil {
		return nil, errNoAnalysis
	}
	return res.Analysis, nil
}

// lastEventID parses the SSE resume cursor: the standard Last-Event-ID
// header (browsers set it on reconnect), with a ?last_event_id= query
// fallback for clients that cannot set headers.
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	n, _ := strconv.ParseUint(v, 10, 64)
	return n
}

// handleAnalysisStream streams a job's analysis over SSE:
//
//	id: <seq>            batch sequence number (the resume cursor)
//	event: epochs        data: analysis.StreamBatch (dirty buckets)
//	event: summary       data: batch carrying the final report
//	event: error         data: {"error": ...} for failed flights
//	event: done          data: {}             stream complete
//
// A subscriber joining or resuming mid-run first receives one snapshot
// batch (Reset set) that brings it to the current state; applying every
// received batch to an analysis.StreamAccumulator reconstructs the
// job's final report byte-identically.
func (s *Server) handleAnalysisStream(w http.ResponseWriter, r *http.Request) {
	id, t := r.PathValue("id"), caller(r)
	lastSeq := lastEventID(r)
	sub, err := s.manager.SubscribeAnalysis(t, id, lastSeq)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		if sub.cancel != nil {
			sub.cancel()
		}
		writeError(w, http.StatusInternalServerError, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	send := func(b analysis.StreamBatch) bool {
		blob, err := json.Marshal(b)
		if err != nil {
			return false
		}
		event := "epochs"
		if b.Summary != nil {
			event = "summary"
		}
		if err := writeSSEID(w, strconv.FormatUint(b.Seq, 10), event, blob); err != nil {
			return false
		}
		flusher.Flush()
		lastSeq = b.Seq
		return true
	}
	for {
		for _, b := range sub.replay {
			if !send(b) {
				if sub.cancel != nil {
					sub.cancel()
				}
				return
			}
		}
		if sub.done {
			if sub.err != nil {
				blob, _ := json.Marshal(apiError{Error: sub.err.Error()})
				_ = writeSSE(w, "error", blob)
			}
			_ = writeSSE(w, "done", []byte("{}"))
			flusher.Flush()
			return
		}
		alive := true
		for alive {
			select {
			case <-r.Context().Done():
				sub.cancel()
				return
			case b, open := <-sub.ch:
				if !open {
					alive = false
					break
				}
				if !send(b) {
					sub.cancel()
					return
				}
			}
		}
		sub.cancel()
		// The channel closed: the flight finished, or we lagged. Either
		// way resubscribing from the last delivered sequence yields the
		// correct continuation (final replay + done, or a snapshot).
		next, err := s.manager.SubscribeAnalysis(t, id, lastSeq)
		if err != nil {
			_ = writeSSE(w, "done", []byte("{}"))
			flusher.Flush()
			return
		}
		sub = next
	}
}
