package server

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
)

// errNoAnalysis answers analysis requests for jobs that never carried a
// report (HTTP 404 at the handler layer).
var errNoAnalysis = errors.New("server: job carries no analysis report (submit with config.Analysis.Enabled)")

// analysisStream is a flight's live analysis feed. The collector emits
// batches on the simulation goroutine (flight-side, via ingest); the
// stream folds them into a last-write-wins accumulator, so a subscriber
// joining late or resuming after a lag catches up with a single
// snapshot batch, and publishes them to current subscribers.
//
// Deltas are never re-sent, which is why a lagging subscriber must be
// cut off rather than handed a gap (the feed's lag rule). At finish the
// accumulator is dropped and the final report serves all future
// subscribers, so a terminal job costs one *Report (which the job table
// pins anyway), not a bucket map. acc and final are guarded by the
// feed's lock.
type analysisStream struct {
	feed  feed[analysis.StreamBatch]
	acc   *analysis.StreamAccumulator // live catch-up; nil once sealed
	final *analysis.Report            // sealed catch-up; nil for failed flights
}

func newAnalysisStream() *analysisStream {
	a := &analysisStream{acc: analysis.NewStreamAccumulator()}
	a.feed.depth = 64 // absorbs an epoch burst before the lag rule cuts a reader off
	a.feed.catchUp = a.catchUp
	return a
}

// ingest is the flight's analysis.StreamSink. It runs on the simulation
// goroutine; publish never blocks, so a stalled subscriber can never
// stall the simulation.
func (a *analysisStream) ingest(batch analysis.StreamBatch) {
	a.feed.publish(func(seq uint64) analysis.StreamBatch {
		batch.Seq = seq
		a.acc.Apply(batch)
		return batch
	})
}

// finish seals the stream with the flight's outcome. rep may be nil
// (failed flight, or analysis disabled after all).
func (a *analysisStream) finish(rep *analysis.Report, err error) {
	a.feed.seal(err, func() { a.acc, a.final = nil, rep })
}

// catchUp is the analysis catch-up: one batch bringing a subscriber
// from cursor after to the current state — the accumulator's snapshot
// while live, the final report's deltas once sealed. A report that was
// never streamed live (remote execution, cache hits, journal replays)
// is served as sequence 1.
func (a *analysisStream) catchUp(after, seq uint64) []analysis.StreamBatch {
	switch {
	case a.final != nil:
		if seq = max(seq, 1); after < seq {
			return []analysis.StreamBatch{analysis.DeltasFromReport(a.final, seq)}
		}
	case a.acc != nil && after < seq:
		return []analysis.StreamBatch{a.acc.Snapshot(seq)}
	}
	return nil
}

// batchFrame renders an analysis batch as an "epochs" frame, or
// "summary" for the final one.
func batchFrame(b analysis.StreamBatch) (uint64, string, any) {
	if b.Summary != nil {
		return b.Seq, "summary", b
	}
	return b.Seq, "epochs", b
}

// sealedAnalysis is the feed of a report that resolved without a live
// flight stream: cache hits at submission, and jobs recovered from the
// journal after a restart or retention pruning.
func sealedAnalysis(rep *analysis.Report) *feed[analysis.StreamBatch] {
	a := newAnalysisStream()
	a.finish(rep, nil)
	return &a.feed
}

// analysisFeed returns the analysis feed of a job caller may see. IDs
// the job table no longer holds fall back to the durable journal +
// result cache, so streams of evicted or pre-restart jobs replay their
// final report. ErrUnknownJob / errNoAnalysis map to 404.
func (m *Manager) analysisFeed(caller Tenant, id string) (*feed[analysis.StreamBatch], error) {
	m.mu.Lock()
	j := m.visibleLocked(caller, id)
	if j == nil {
		m.mu.Unlock()
		rep, err := m.analysisFromJournal(caller, id)
		if err != nil {
			return nil, err
		}
		return sealedAnalysis(rep), nil
	}
	defer m.mu.Unlock()
	switch {
	case j.flight != nil && j.flight.stream != nil:
		return &j.flight.stream.feed, nil
	case j.state == StateDone && j.result != nil && j.result.Analysis != nil:
		// No live stream: the job resolved straight from the cache at
		// submission.
		return sealedAnalysis(j.result.Analysis), nil
	case j.state.Terminal() && j.state != StateDone:
		return nil, fmt.Errorf("server: job %s is %s; it carries no analysis stream", id, j.state)
	}
	return nil, errNoAnalysis
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
