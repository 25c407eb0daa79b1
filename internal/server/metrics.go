package server

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/prof"
)

// counters aggregates the manager's operational numbers. All fields
// are guarded by Manager.mu.
type counters struct {
	// jobCounts totals every tenant's share. Its cacheHits also counts
	// flights served from a cache (finishFlight): cache_hit_rate counts
	// resolutions, so that bump has no owner share.
	jobCounts
	simulations uint64 // fresh simulations executed on this machine
	remoteSims  uint64 // flights executed on peer daemons (-peers)
	running     int    // flights currently simulating

	// Queue-side deadline enforcement (the fleet counts retries, hedges
	// and quarantines itself: Fleet.Stats).
	deadlineExpired uint64 // queued jobs failed because their deadline passed
	deadlineShed    uint64 // submissions rejected at admission as deadline-unmeetable

	// Fleet-wide perf-analyzer aggregates: the Totals of every completed
	// flight whose config enabled analysis, plus how many such reports
	// contributed. Event-exact sums (they bypass the bounded epoch
	// rings), so the /metrics rates stay correct however long the runs.
	analysisReports uint64
	analysisTotals  analysis.Totals

	// perWorker breaks flight resolution down by executing slot:
	// "local", "cache" (journal-replayed submission hits), or a peer
	// name. Phase attribution aggregates the sampled PhaseProfile of
	// every report the worker produced.
	perWorker map[string]*workerStats
}

// jobCounts is one block of job lifecycle counters, kept fleet-wide
// (counters) and per tenant (tenantCounters); countJobLocked bumps both.
type jobCounts struct {
	submitted uint64
	completed uint64
	failed    uint64
	canceled  uint64
	deduped   uint64 // jobs attached to an in-flight identical config
	cacheHits uint64 // jobs served from the persistent cache
}

// workerStats is one execution slot's share of the fleet aggregates.
type workerStats struct {
	flights    uint64
	cacheHits  uint64
	reports    uint64 // completed flights carrying an analysis report
	phaseCalls [prof.NumPhases]uint64
	phaseCells [prof.NumPhases]analysis.PhaseCell
}

// worker returns (allocating on first use) the stats bucket for name.
func (c *counters) worker(name string) *workerStats {
	if c.perWorker == nil {
		c.perWorker = map[string]*workerStats{}
	}
	ws := c.perWorker[name]
	if ws == nil {
		ws = &workerStats{}
		c.perWorker[name] = ws
	}
	return ws
}

// accumulate folds one report's analysis (and, when profiled, phase
// attribution) into the worker's share.
func (ws *workerStats) accumulate(rep *analysis.Report) {
	if rep == nil {
		return
	}
	ws.reports++
	if rep.Phases == nil {
		return
	}
	for p := 0; p < int(prof.NumPhases); p++ {
		ws.phaseCalls[p] += rep.Phases.Calls[p]
		ws.phaseCells[p].Samples += rep.Phases.Totals[p].Samples
		ws.phaseCells[p].Ns += rep.Phases.Totals[p].Ns
	}
}

// AnalysisMetrics is the fleet-wide perf-analyzer block of /metrics,
// present once at least one analysis-enabled flight completed.
type AnalysisMetrics struct {
	// Reports counts completed flights that carried an analysis report.
	Reports uint64 `json:"reports"`

	RowHits      uint64  `json:"row_hits"`
	RowMisses    uint64  `json:"row_misses"`
	RowConflicts uint64  `json:"row_conflicts"`
	RowHitRate   float64 `json:"row_hit_rate"`

	CCLookups uint64  `json:"cc_lookups"`
	CCHits    uint64  `json:"cc_hits"`
	CCHitRate float64 `json:"cc_hit_rate"`

	FAWStallCycles uint64 `json:"faw_stall_cycles"`
	QueueSamples   uint64 `json:"queue_samples"`
	QueueDepthSum  uint64 `json:"queue_depth_sum"`
}

// Metrics is the /metrics snapshot.
type Metrics struct {
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`
	Running       int  `json:"running"`
	Draining      bool `json:"draining"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsDeduped   uint64 `json:"jobs_deduped"`
	JobsRetained  int    `json:"jobs_retained"` // still queryable (bounded by -retain)

	SimulationsRun uint64 `json:"simulations_run"`
	// RemoteSimulations counts flights executed on peer daemons
	// (-peers); JobsRequeued counts flight attempts retried on another
	// fleet worker after their worker was lost, shed them, or could not
	// run them.
	RemoteSimulations uint64 `json:"remote_simulations,omitempty"`
	JobsRequeued      uint64 `json:"jobs_requeued,omitempty"`
	CacheHits         uint64 `json:"cache_hits"`
	// CacheHitRate is cache-satisfied resolutions over all resolutions:
	// cache_hits / (cache_hits + simulations_run + remote_simulations).
	// A resolution is a submission answered straight from the cache or a
	// flight executed — locally (simulations_run) or on a peer daemon
	// (remote_simulations); deduped jobs join an existing flight's
	// resolution and count in no term.
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	// Analysis aggregates the perf-analyzer totals of every completed
	// analysis-enabled flight; absent until one completes.
	Analysis *AnalysisMetrics `json:"analysis,omitempty"`

	// Workers breaks flight resolution down per execution slot, with
	// per-phase wall-clock attribution when the configs enabled
	// PhaseProfile; absent until a flight completes (or is replayed
	// from the journal at startup).
	Workers []WorkerMetrics `json:"workers,omitempty"`

	// Tenants breaks jobs and quota state down per tenant: every
	// registered tenant plus any tenant that has submitted. Absent in
	// open mode with no attributed submissions.
	Tenants []TenantMetrics `json:"tenants,omitempty"`

	// Resilience block. HedgesLaunched/HedgesWon count straggler flights
	// raced against a second attempt on another fleet worker; hedges
	// never double-count simulations because only the winning attempt
	// finishes the flight.
	HedgesLaunched uint64 `json:"hedges_launched,omitempty"`
	HedgesWon      uint64 `json:"hedges_won,omitempty"`
	// PoisonQuarantined counts flights failed after killing
	// PoisonThreshold successive workers; resubmissions fail fast.
	PoisonQuarantined uint64 `json:"poison_quarantined,omitempty"`
	// DeadlineExpired counts queued jobs failed fast after their
	// propagated deadline passed; DeadlineShed counts submissions
	// rejected at admission because the estimated queue drain already
	// exceeded their deadline.
	DeadlineExpired uint64 `json:"deadline_expired,omitempty"`
	DeadlineShed    uint64 `json:"deadline_shed,omitempty"`

	// StorageDegraded is true while any durable tier (result cache, job
	// journal) runs memory-only after disk write failures; Storage
	// carries the per-tier detail. Absent on cacheless daemons.
	StorageDegraded bool            `json:"storage_degraded,omitempty"`
	Storage         *StorageMetrics `json:"storage,omitempty"`
}

// StorageMetrics is the degraded-mode storage block of /metrics: the
// per-tier memory-only state, how many disk writes failed, and how many
// times a probe restored write-through.
type StorageMetrics struct {
	CacheDegraded    bool   `json:"cache_degraded"`
	CacheWriteErrors uint64 `json:"cache_write_errors,omitempty"`
	CacheRestores    uint64 `json:"cache_restores,omitempty"`

	JournalDegraded    bool   `json:"journal_degraded"`
	JournalWriteErrors uint64 `json:"journal_write_errors,omitempty"`
	JournalRestores    uint64 `json:"journal_restores,omitempty"`
}

// TenantMetrics is one tenant's block of /metrics: live gauges (queued,
// running, token bucket) plus lifetime counters.
type TenantMetrics struct {
	Name    string `json:"name"`
	Queued  int    `json:"queued"`  // flights waiting in the tenant's subqueue
	Running int    `json:"running"` // flights the scheduler picked and not yet finished

	Submitted     uint64 `json:"submitted"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed,omitempty"`
	Canceled      uint64 `json:"canceled,omitempty"`
	Deduped       uint64 `json:"deduped,omitempty"`
	CacheHits     uint64 `json:"cache_hits,omitempty"`
	Preempted     uint64 `json:"preempted,omitempty"`
	QuotaRejected uint64 `json:"quota_rejected,omitempty"`
	RateLimited   uint64 `json:"rate_limited,omitempty"`

	// RateTokens is the live token-bucket level, present only for
	// rate-limited tenants. Never negative.
	RateTokens *float64 `json:"rate_tokens,omitempty"`
}

// PhaseMetrics is one profiled phase's share of a worker's wall clock.
type PhaseMetrics struct {
	Calls   uint64  `json:"calls"`
	Samples uint64  `json:"samples"`
	AvgNs   float64 `json:"avg_ns"`
	// EstimatedMs extrapolates the sampled average over every call.
	EstimatedMs float64 `json:"estimated_ms"`
}

// WorkerMetrics is the per-worker block of /metrics.
type WorkerMetrics struct {
	Name            string                  `json:"name"`
	Flights         uint64                  `json:"flights"`
	CacheHits       uint64                  `json:"cache_hits,omitempty"`
	AnalysisReports uint64                  `json:"analysis_reports,omitempty"`
	Phases          map[string]PhaseMetrics `json:"phases,omitempty"`
}

// Metrics returns a consistent snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	fs := m.fleet.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Metrics{
		QueueDepth:        m.sched.total,
		QueueCapacity:     m.sched.capacity,
		Running:           m.counters.running,
		Draining:          m.draining,
		JobsSubmitted:     m.counters.submitted,
		JobsCompleted:     m.counters.completed,
		JobsFailed:        m.counters.failed,
		JobsCanceled:      m.counters.canceled,
		JobsDeduped:       m.counters.deduped,
		JobsRetained:      len(m.jobs),
		SimulationsRun:    m.counters.simulations,
		RemoteSimulations: m.counters.remoteSims,
		JobsRequeued:      uint64(fs.Retries),
		CacheHits:         m.counters.cacheHits,
		HedgesLaunched:    uint64(fs.HedgesLaunched),
		HedgesWon:         uint64(fs.HedgesWon),
		PoisonQuarantined: uint64(fs.Quarantined),
		DeadlineExpired:   m.counters.deadlineExpired,
		DeadlineShed:      m.counters.deadlineShed,
	}
	if total := s.CacheHits + s.SimulationsRun + s.RemoteSimulations; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	if m.cache != nil {
		s.CacheEntries = m.cache.Len()
	}
	if m.counters.analysisReports > 0 {
		tot := m.counters.analysisTotals
		s.Analysis = &AnalysisMetrics{
			Reports:        m.counters.analysisReports,
			RowHits:        tot.RowHits,
			RowMisses:      tot.RowMisses,
			RowConflicts:   tot.RowConflicts,
			RowHitRate:     tot.RowHitRate(),
			CCLookups:      tot.CCLookups,
			CCHits:         tot.CCHits,
			CCHitRate:      tot.CCHitRate(),
			FAWStallCycles: tot.FAWStallCycles,
			QueueSamples:   tot.QueueSamples,
			QueueDepthSum:  tot.QueueDepthSum,
		}
	}
	if len(m.counters.perWorker) > 0 {
		names := make([]string, 0, len(m.counters.perWorker))
		for name := range m.counters.perWorker {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ws := m.counters.perWorker[name]
			wm := WorkerMetrics{
				Name:            name,
				Flights:         ws.flights,
				CacheHits:       ws.cacheHits,
				AnalysisReports: ws.reports,
			}
			for p := 0; p < int(prof.NumPhases); p++ {
				cell := ws.phaseCells[p]
				if ws.phaseCalls[p] == 0 && cell.Samples == 0 {
					continue
				}
				pm := PhaseMetrics{Calls: ws.phaseCalls[p], Samples: cell.Samples}
				if cell.Samples > 0 {
					pm.AvgNs = float64(cell.Ns) / float64(cell.Samples)
					pm.EstimatedMs = pm.AvgNs * float64(ws.phaseCalls[p]) / 1e6
				}
				if wm.Phases == nil {
					wm.Phases = map[string]PhaseMetrics{}
				}
				wm.Phases[prof.Phase(p).String()] = pm
			}
			s.Workers = append(s.Workers, wm)
		}
	}
	// Per-tenant blocks: the union of registered tenants and tenants
	// that have submitted (gateway-forwarded names may not be registered).
	tset := map[string]bool{}
	for _, name := range m.registry.TenantNames() {
		tset[name] = true
	}
	for name := range m.tstats {
		tset[name] = true
	}
	if len(tset) > 0 {
		names := make([]string, 0, len(tset))
		for name := range tset {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tc := m.tstats[name]
			if tc == nil {
				tc = &tenantCounters{}
			}
			tm := TenantMetrics{
				Name:          name,
				Queued:        m.sched.queuedFor(name),
				Running:       m.sched.runningFor(name),
				Submitted:     tc.submitted,
				Completed:     tc.completed,
				Failed:        tc.failed,
				Canceled:      tc.canceled,
				Deduped:       tc.deduped,
				CacheHits:     tc.cacheHits,
				Preempted:     tc.preempted,
				QuotaRejected: tc.quotaRejected,
			}
			if tokens, limited, ok := m.registry.bucketState(name); ok {
				tm.RateLimited = limited
				if t := m.registry.Lookup(name); t.RatePerSec > 0 {
					lvl := tokens
					tm.RateTokens = &lvl
				}
			}
			s.Tenants = append(s.Tenants, tm)
		}
	}
	if m.cache != nil {
		sm := &StorageMetrics{}
		sm.CacheDegraded, sm.CacheWriteErrors, sm.CacheRestores = m.cache.StorageHealth()
		sm.JournalDegraded, sm.JournalWriteErrors, sm.JournalRestores = m.journal.file.Health()
		s.Storage = sm
		s.StorageDegraded = sm.CacheDegraded || sm.JournalDegraded
	}
	return s
}

// accumulateAnalysisLocked folds one completed flight's analysis totals
// into the fleet aggregates. Caller holds m.mu.
func (c *counters) accumulateAnalysisLocked(t analysis.Totals) {
	c.analysisReports++
	a := &c.analysisTotals
	a.ACT += t.ACT
	a.FastACT += t.FastACT
	a.PRE += t.PRE
	a.RD += t.RD
	a.WR += t.WR
	a.REF += t.REF
	a.FAWStallCycles += t.FAWStallCycles
	a.RowHits += t.RowHits
	a.RowMisses += t.RowMisses
	a.RowConflicts += t.RowConflicts
	a.CCLookups += t.CCLookups
	a.CCHits += t.CCHits
	a.CCInserts += t.CCInserts
	a.CCEvictions += t.CCEvictions
	a.CCExpiries += t.CCExpiries
	a.QueueSamples += t.QueueSamples
	a.QueueDepthSum += t.QueueDepthSum
	if t.QueueDepthPeak > a.QueueDepthPeak {
		a.QueueDepthPeak = t.QueueDepthPeak
	}
}
