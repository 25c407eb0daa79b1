// Package server turns the simulator into a long-running network
// service: a job manager layered on the internal/sweep engine, HTTP
// handlers exposing it as a JSON API (see server.go), Server-Sent
// Events streaming each job's lifecycle and live analysis through one
// sequenced feed type (sse.go, stream.go), and operational metrics
// (metrics.go).
//
// The manager's core guarantees:
//
//   - bounded intake: at most QueueDepth simulations wait at once;
//     beyond that submissions are rejected (ErrQueueFull), never
//     silently buffered,
//   - singleflight deduplication: identical configs (same sweep.Key)
//     submitted concurrently by any number of clients — or tenants —
//     run exactly one simulation, and every subscriber receives that
//     one result,
//   - content-addressed persistence: completed results land in the
//     sweep.Cache, so a restarted daemon serves previously computed
//     configs instantly and GET /v1/results/{key} works across runs,
//   - multi-tenant fairness: with a tenant Registry configured,
//     staging is weighted fair-share across tenants (schedq.go) with
//     per-tenant queue/concurrency quotas; without one the manager
//     degenerates to the original single-FIFO behavior exactly,
//   - one visibility rule: every job operation (Submit, Job, ListJobs,
//     Cancel, Analysis, and the eventFeed/analysisFeed lookups behind
//     the two SSE streams) takes the caller,
//     and canSee decides for live and journaled jobs alike — open mode,
//     gateways, the owner, and anyone for an owner-less job may see it;
//     to everyone else it is ErrUnknownJob, the same answer as an ID
//     never issued,
//   - one execution core: local workers and peer daemons (Remotes) are
//     workers of one Fleet (fleet.go) behind one worker loop, so peer
//     health, retries, hedging and poison quarantine follow the same
//     rules as internal/dispatch campaigns,
//   - graceful shutdown: Drain stops intake, cancels still-queued
//     jobs, and waits for running simulations to finish.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Submission errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull rejects submissions when the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("server: job queue is full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("server: shutting down, not accepting jobs")
	// ErrUnknownJob reports a job ID the manager has never issued (404).
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrDeadlineExceeded fails a job whose propagated deadline expired
	// while it was still queued — it fails fast instead of occupying a
	// scheduler slot it can no longer use.
	ErrDeadlineExceeded = errors.New("server: job deadline exceeded")
	// ErrQuarantined fails a poison job: one whose execution killed
	// PoisonThreshold successive workers. Resubmissions of the same
	// config fail fast instead of cascading through the fleet.
	ErrQuarantined = errors.New("server: job quarantined")
)

// JobState is the lifecycle position of one job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is one submitted simulation: a config plus an optional
// client-chosen label echoed back in statuses and progress events.
type JobSpec struct {
	Label  string     `json:"label,omitempty"`
	Config sim.Config `json:"config"`
	// Tenant attributes the job to a tenant other than the submitting
	// principal. Honored only in open mode (no registry) or when the
	// authenticated caller is a Gateway tenant — the mechanism by which
	// a fleet front forwards the original caller's identity to its
	// peers, keeping fleet-wide quotas and attribution correct.
	// Excluded from sweep.Key: attribution never changes cache keys.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMs, when positive, is the job's absolute deadline in
	// milliseconds since the Unix epoch. The manager enforces it
	// queue-side: a job still queued past its deadline fails fast with
	// Reason "deadline", and a submission whose deadline the estimated
	// queue drain already exceeds is shed at admission. Normally filled
	// from the X-Ccsimd-Deadline-Ms header (the client's context
	// deadline); excluded from sweep.Key like Tenant — urgency never
	// changes content addresses.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// JobStatus is the wire representation of one job's state. Result is
// populated only on done jobs, and only by the detail/terminal paths
// (job GET, final SSE event), not by listings.
type JobStatus struct {
	ID      string   `json:"id"`
	Label   string   `json:"label,omitempty"`
	Tenant  string   `json:"tenant,omitempty"` // owning tenant ("" in open mode)
	Key     string   `json:"key,omitempty"`    // content address of the config
	State   JobState `json:"state"`
	Cached  bool     `json:"cached,omitempty"`  // served from the persistent cache
	Deduped bool     `json:"deduped,omitempty"` // attached to another job's in-flight run
	Error   string   `json:"error,omitempty"`
	// Reason is the machine-readable cause of a terminal failure
	// (ReasonDeadline, ReasonQuarantined) so fleet schedulers classify
	// failures without parsing Error strings.
	Reason      string      `json:"reason,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	ElapsedMs   float64     `json:"elapsed_ms,omitempty"` // simulation wall clock
	Result      *sim.Result `json:"result,omitempty"`
}

// job is the manager-side state of one submission. All fields are
// guarded by Manager.mu.
type job struct {
	id          string
	label       string
	tenant      string // owning tenant name ("" = anonymous/open mode)
	key         string
	state       JobState
	flight      *flight
	cached      bool
	deduped     bool
	err         error
	reason      string    // machine-readable failure cause (ReasonDeadline, ...)
	deadline    time.Time // queue-side enforcement bound; zero = none
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	elapsed     time.Duration
	result      *sim.Result

	events []jobEvent      // status history, the lifecycle feed's catch-up
	feed   *feed[jobEvent] // allocated by the first subscriber (sse.go)
}

// flight is one physical simulation execution. Concurrent submissions
// of the same config attach their jobs to the existing flight instead
// of creating a second one — the singleflight core of the dedup
// guarantee.
type flight struct {
	key    string // content address; flights are indexed by it
	label  string
	cfg    sim.Config
	jobs   []*job
	state  JobState // queued or running
	ctx    context.Context
	cancel context.CancelFunc

	// tenant is the owner for scheduling and quota accounting: the
	// tenant whose submission created the flight (attached tenants ride
	// along without consuming their own concurrency). priority is the
	// highest Priority among attached tenants — preemption must never
	// cancel a flight a high-priority tenant is waiting on. seq orders
	// arrivals for newest-first preemption.
	tenant   string
	priority int
	seq      uint64

	// stream, set when the config enables analysis, fans the flight's
	// live epoch batches out to SSE subscribers and retains the final
	// report for late ones.
	stream *analysisStream
}

// NoLocalWorkers as ManagerConfig.Workers makes the manager a pure
// dispatch front: it runs no simulations itself and needs at least one
// Remote to make progress (NewManager rejects it otherwise).
const NoLocalWorkers = -1

// ManagerConfig sizes a Manager.
type ManagerConfig struct {
	// Workers is the number of simulations running concurrently on
	// this machine (0 means GOMAXPROCS; NoLocalWorkers means none —
	// valid only together with Remotes).
	Workers int
	// QueueDepth bounds how many distinct simulations may wait for a
	// worker (<= 0 means 64). Submissions beyond it fail ErrQueueFull.
	QueueDepth int
	// Cache, when non-nil, persists every completed result and serves
	// previously computed configs without re-simulating.
	Cache *sweep.Cache
	// Retention bounds how many terminal jobs stay queryable (<= 0
	// means 1024). The daemon is long-running, so finished jobs —
	// each pinning a full sim.Result — are evicted oldest-first beyond
	// this cap; their results remain reachable through the cache via
	// GET /v1/results/{key}. Live jobs are never evicted.
	Retention int

	// Remotes are peer execution backends (ccsimd -peers). They join
	// the local workers in one Fleet: each adds Slots() worker
	// goroutines, and every flight runs on whichever fleet worker is
	// free. A peer that fails in transport sits behind its circuit
	// breaker (re-probed every 3s, retired after 4 failed re-probes)
	// while its flight retries elsewhere; a flight no worker can take
	// runs on this machine.
	Remotes []Remote

	// Tenants, when non-nil, turns the manager into a multi-tenant
	// gateway: submissions are attributed to tenants, staged by
	// weighted fair share with per-tenant quotas, and surfaced
	// per-tenant on /metrics. Nil is "open mode": every submission is
	// anonymous and scheduling degenerates to the original single FIFO.
	Tenants *Registry

	// TraceRoot, when non-empty, is advertised on /healthz as a shared
	// trace directory: clients may submit trace-file configs whose
	// absolute paths live under it, because this daemon sees the same
	// files at the same paths (NFS mount, shared volume). Without it,
	// trace-file configs are rejected client-side — the daemon would
	// otherwise open the paths on its own filesystem, failing or,
	// worse, silently reading a different file.
	TraceRoot string

	// HedgeAfter, when positive, hedges straggler flights: a flight
	// whose only attempt has run longer than this gets a second attempt
	// on another free fleet worker (a local worker or another peer),
	// first result wins. Safe because the singleflight on sweep.Key
	// guarantees at most one *counted* simulation per config — the
	// losing attempt is canceled and never finishes the flight. Zero
	// disables hedging.
	HedgeAfter time.Duration
	// PoisonThreshold quarantines a flight after its execution killed
	// this many successive workers (0 means 3; negative disables
	// quarantine entirely).
	PoisonThreshold int
	// StorageProbeInterval overrides how often degraded (memory-only)
	// storage probes the disk for recovery; <= 0 keeps the one-second
	// default.
	StorageProbeInterval time.Duration
}

// Manager owns the job table, the dedup index, and the worker pool
// feeding the sweep engine.
type Manager struct {
	cache *sweep.Cache
	// registry is the tenant table (nil = open mode).
	registry *Registry
	// journal durably maps job IDs to cache keys (<cache path>.jobs) so
	// analysis lookups and fleet metrics survive restarts and retention
	// pruning. Nil without a cache.
	journal *jobJournal

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	retention int
	workers   int // local simulation slots
	traceRoot string
	// fleet runs every flight: the Remotes plus the local workers.
	fleet *Fleet

	mu       sync.Mutex
	qcond    *sync.Cond // workers wait here for startable flights
	jobs     map[string]*job
	order    []string           // job IDs in submission order
	flights  map[string]*flight // key -> in-flight execution
	sched    *schedQueue        // per-tenant staging queues (schedq.go)
	qclosed  bool               // set by Drain; workers exit once the queue empties
	draining bool
	nextID   uint64
	slots    int // worker goroutines: the fleet's total capacity

	// quarantined maps content-address keys of poison jobs to their
	// quarantine error; resubmissions fail fast.
	quarantined map[string]error
	// avgFlightNs is an EWMA of fresh (non-cached) flight durations,
	// the basis of admission-time deadline shedding: a submission whose
	// deadline the estimated queue drain exceeds is rejected instead of
	// occupying a slot it cannot use.
	avgFlightNs float64

	counters counters
	tstats   map[string]*tenantCounters
}

// tenantCounters is one tenant's share of the job counters, the
// per-tenant block of /metrics. Guarded by Manager.mu.
type tenantCounters struct {
	jobCounts
	preempted     uint64 // queued jobs canceled by higher-priority submissions
	quotaRejected uint64 // submissions rejected by MaxQueued/MaxConcurrent quotas
}

// tenantCountersLocked returns (allocating on first use) name's
// counter block. Caller holds m.mu.
func (m *Manager) tenantCountersLocked(name string) *tenantCounters {
	tc := m.tstats[name]
	if tc == nil {
		tc = &tenantCounters{}
		m.tstats[name] = tc
	}
	return tc
}

// countJobLocked applies bump to the fleet-wide job counters and to
// tenant's share of them (anonymous jobs, tenant "", have none). Caller
// holds m.mu.
func (m *Manager) countJobLocked(tenant string, bump func(*jobCounts)) {
	bump(&m.counters.jobCounts)
	if tenant != "" {
		bump(&m.tenantCountersLocked(tenant).jobCounts)
	}
}

// NewManager starts one worker goroutine per fleet slot — cfg.Workers
// local ones plus Slots() per remote backend — and returns the manager.
// Call Drain to stop it.
func NewManager(cfg ManagerConfig) *Manager {
	workers := cfg.Workers
	switch {
	case workers == NoLocalWorkers:
		workers = 0
		if len(cfg.Remotes) == 0 {
			// A manager with no execution capacity would accept jobs
			// and never run them; keep one local worker instead.
			workers = 1
		}
	case workers <= 0:
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	retention := cfg.Retention
	if retention <= 0 {
		retention = 1024
	}
	workerSet := append([]Remote(nil), cfg.Remotes...)
	if workers > 0 {
		workerSet = append(workerSet, Local{Workers: workers})
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cache:       cfg.Cache,
		registry:    cfg.Tenants,
		retention:   retention,
		workers:     workers,
		traceRoot:   cfg.TraceRoot,
		fleet:       NewFleet(workerSet, FleetConfig{HedgeAfter: cfg.HedgeAfter, PoisonThreshold: cfg.PoisonThreshold}),
		ctx:         ctx,
		cancel:      cancel,
		jobs:        map[string]*job{},
		flights:     map[string]*flight{},
		sched:       newSchedQueue(depth),
		tstats:      map[string]*tenantCounters{},
		quarantined: map[string]error{},
	}
	m.qcond = sync.NewCond(&m.mu)
	if cfg.Cache != nil {
		// The journal keeps a wider window than the job table: an entry is
		// a one-line ID->key mapping, so retaining 8x the in-memory
		// retention is cheap, and it is exactly the evicted jobs — the ones
		// no longer in the table — whose IDs the journal must still resolve.
		m.journal = openJournal(cfg.Cache.Path()+".jobs", 8*retention)
		if cfg.StorageProbeInterval > 0 {
			cfg.Cache.SetStorageProbeInterval(cfg.StorageProbeInterval)
			m.journal.file.SetProbeInterval(cfg.StorageProbeInterval)
		}
		if max := m.journal.maxID(); max > m.nextID {
			m.nextID = max
		}
		m.replayJournal()
	}
	m.slots = m.fleet.Slots()
	m.wg.Add(m.slots)
	for i := 0; i < m.slots; i++ {
		go m.worker()
	}
	// The deadline sweeper fails queued jobs whose deadline passed. Not
	// in m.wg: it lives on m.ctx, which Drain cancels after the workers
	// finish.
	go m.expireLoop()
	return m
}

// replayJournal rebuilds the fleet analysis aggregates from the
// journaled jobs whose reports still live in the cache, so /metrics
// reflects the daemon's history across restarts. One accumulation per
// distinct key, mirroring the live rule of one per executed flight
// (cache-hit submissions of the same config do not double-count).
// Runs before the workers start, so no locking is needed.
func (m *Manager) replayJournal() {
	seen := map[string]bool{}
	for _, e := range m.journal.entries() {
		if e.State != StateDone || e.Key == "" || seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		res, ok := m.cache.Lookup(e.Key)
		if !ok || res.Analysis == nil {
			continue
		}
		m.counters.accumulateAnalysisLocked(res.Analysis.Totals)
		if e.Worker != "" {
			ws := m.counters.worker(e.Worker)
			ws.flights++
			if e.Worker == "cache" {
				ws.cacheHits++
			}
			ws.accumulate(res.Analysis)
		}
	}
}

// Cache returns the manager's persistent result store (may be nil).
func (m *Manager) Cache() *sweep.Cache { return m.cache }

// Registry returns the tenant registry (nil in open mode).
func (m *Manager) Registry() *Registry { return m.registry }

// Workers returns the local simulation concurrency, advertised on
// /healthz so fleet dispatchers can weight assignment by capacity.
func (m *Manager) Workers() int { return m.workers }

// TraceRoot returns the advertised shared trace directory ("" when the
// daemon has none).
func (m *Manager) TraceRoot() string { return m.traceRoot }

// StorageDegraded reports whether any durable tier (result cache, job
// journal) is currently running memory-only after disk write failures.
// Surfaced as a /readyz warning and the storage_degraded metric; the
// daemon keeps serving — results and job state stay correct in memory
// and the disk is re-probed automatically.
func (m *Manager) StorageDegraded() bool {
	if m.cache == nil {
		return false
	}
	cacheDegraded, _, _ := m.cache.StorageHealth()
	journalDegraded, _, _ := m.journal.file.Health()
	return cacheDegraded || journalDegraded
}

// Submit validates and enqueues a batch of jobs atomically on behalf
// of caller (the zero Tenant in open mode): either every spec is
// accepted (each getting a job ID) or none is. Identical configs —
// within the batch or against jobs already queued/running, across
// tenants — share one simulation; configs already in the result cache
// complete immediately without queueing. Batches that would push the
// owning tenant past MaxQueued fail with a QuotaError; batches
// overflowing the shared queue either preempt queued lower-priority
// flights or fail ErrQueueFull.
func (m *Manager) Submit(caller Tenant, specs []JobSpec) ([]JobStatus, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("server: empty submission")
	}
	keys := make([]string, len(specs))
	owners := make([]Tenant, len(specs))
	deadlines := make([]time.Time, len(specs))
	for i, spec := range specs {
		if err := spec.Config.Validate(); err != nil {
			return nil, fmt.Errorf("server: job %d: %w", i, err)
		}
		if spec.DeadlineMs > 0 {
			deadlines[i] = time.UnixMilli(spec.DeadlineMs)
		}
		// Hash outside the lock: keys are a pure function of the spec,
		// and marshal+SHA-256 per config would otherwise stall every
		// status poll and completing flight behind this batch.
		if key, err := sweep.Key(spec.Config); err == nil {
			keys[i] = key
		}
		// Uncacheable (custom-mechanism) configs cannot arrive over
		// JSON, but guard anyway: they run as unique key-less flights.

		// Resolve the owning tenant: the caller, unless the spec names
		// another tenant and the caller may speak for it (fleet fronts
		// forwarding the original submitter, or open mode).
		name := caller.Name
		if spec.Tenant != "" && (caller.Gateway || m.registry == nil) {
			name = spec.Tenant
		}
		owners[i] = m.registry.Lookup(name)
	}

	// Journal writes do file I/O; this defer is registered before the
	// unlock defer so it runs after the lock is released.
	var recs []journalEntry
	defer func() { m.journal.record(recs...) }()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	// Poison quarantine: a config that killed PoisonThreshold successive
	// workers fails fast on resubmission instead of cascading again.
	for i, key := range keys {
		if qerr, ok := m.quarantined[key]; ok && key != "" {
			return nil, fmt.Errorf("server: job %d: %w", i, qerr)
		}
	}

	// Count the fresh flights this batch needs, so a batch that would
	// overflow the queue (or a tenant quota) is rejected before any job
	// is created.
	type plan struct {
		key    string
		cached *sim.Result
		flight *flight // existing flight to attach to
		fresh  bool    // creates a new flight (queue capacity consumer)
	}
	plans := make([]plan, len(specs))
	fresh := 0
	batchFlights := map[string]bool{}
	queuedAdd := map[string]int{} // per-tenant jobs this batch would queue
	for i := range specs {
		key := keys[i]
		plans[i].key = key
		if key != "" {
			if m.cache != nil {
				if res, ok := m.cache.Lookup(key); ok {
					plans[i].cached = &res
					continue
				}
			}
			if f, ok := m.flights[key]; ok {
				plans[i].flight = f
				if f.state == StateQueued {
					queuedAdd[owners[i].Name]++
				}
				continue
			}
			if batchFlights[key] {
				queuedAdd[owners[i].Name]++
				continue // attaches to a flight created earlier in this batch
			}
			batchFlights[key] = true
		}
		plans[i].fresh = true
		fresh++
		queuedAdd[owners[i].Name]++
	}

	// Admission-time load shedding: a fresh submission whose deadline
	// the estimated queue drain already exceeds (or has already passed)
	// would only waste a scheduler slot — reject it now so the client
	// retries a less loaded worker while there is still time.
	est := m.drainEstimateLocked(fresh)
	for i := range specs {
		if !plans[i].fresh || deadlines[i].IsZero() {
			continue
		}
		if wait := time.Until(deadlines[i]); wait <= 0 || (est > 0 && wait < est) {
			m.counters.deadlineShed++
			return nil, &DeadlineError{JobIndex: i, Wait: wait, Estimate: est}
		}
	}

	// Per-tenant MaxQueued quota: the tenant's jobs already waiting plus
	// what this batch would add must fit.
	for name, add := range queuedAdd {
		owner := m.registry.Lookup(name)
		if owner.MaxQueued <= 0 {
			continue
		}
		waiting := 0
		for _, j := range m.jobs {
			if j.tenant == name && j.state == StateQueued {
				waiting++
			}
		}
		if waiting+add > owner.MaxQueued {
			m.tenantCountersLocked(name).quotaRejected++
			return nil, &QuotaError{Tenant: name, Quota: "queued", Limit: owner.MaxQueued}
		}
	}

	if m.sched.total+fresh > m.sched.capacity {
		// A higher-priority submission may make room by preempting
		// queued (never running) flights of strictly lower classes.
		prio, hasFresh := 0, false
		for i := range specs {
			if plans[i].cached == nil && plans[i].flight == nil {
				if p := owners[i].Priority; !hasFresh || p < prio {
					prio, hasFresh = p, true
				}
			}
		}
		need := m.sched.total + fresh - m.sched.capacity
		victims := m.sched.preemptible(need, prio)
		if victims == nil {
			return nil, ErrQueueFull
		}
		for _, v := range victims {
			m.tenantCountersLocked(v.tenant).preempted++
			for _, j := range v.jobs {
				if !j.state.Terminal() {
					m.cancelJobLocked(j, "preempted by a higher-priority submission")
				}
			}
		}
	}

	now := time.Now()
	statuses := make([]JobStatus, len(specs))
	for i, spec := range specs {
		owner := owners[i]
		m.nextID++
		j := &job{
			id:          fmt.Sprintf("job-%06d", m.nextID),
			label:       spec.Label,
			tenant:      owner.Name,
			key:         plans[i].key,
			deadline:    deadlines[i],
			submittedAt: now,
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.countJobLocked(owner.Name, func(c *jobCounts) { c.submitted++ })

		switch {
		case plans[i].cached != nil:
			j.state = StateDone
			j.cached = true
			j.finishedAt = now
			j.result = plans[i].cached
			m.countJobLocked(owner.Name, func(c *jobCounts) { c.completed++; c.cacheHits++ })
			// The "cache" slot counts service, not production: the report
			// was accumulated when the producing flight finished, so no
			// analysis accumulate here.
			ws := m.counters.worker("cache")
			ws.flights++
			ws.cacheHits++
			recs = append(recs, journalEntry{
				ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
				State: StateDone, Worker: "cache", FinishedAt: now,
			})
		case plans[i].flight != nil:
			m.attachLocked(j, plans[i].flight, owner)
		default:
			var f *flight
			if j.key != "" {
				f = m.flights[j.key] // flight created earlier in this batch
			}
			if f != nil {
				m.attachLocked(j, f, owner)
				break
			}
			fctx, fcancel := context.WithCancel(m.ctx)
			f = &flight{
				key:      j.key,
				label:    spec.Label,
				cfg:      spec.Config,
				state:    StateQueued,
				ctx:      fctx,
				cancel:   fcancel,
				tenant:   owner.Name,
				priority: owner.Priority,
			}
			if ac := spec.Config.Analysis; ac != nil && ac.Enabled {
				f.stream = newAnalysisStream()
			}
			j.state = StateQueued
			j.flight = f
			f.jobs = append(f.jobs, j)
			if f.key != "" {
				m.flights[f.key] = f
			}
			m.sched.push(f, owner) // capacity pre-checked above
			m.qcond.Broadcast()
		}
		// Seed the event history with the submission snapshot, so SSE
		// subscribers can replay the full lifecycle from sequence 1.
		m.notifyLocked(j)
		statuses[i] = m.statusLocked(j, true)
	}
	m.pruneLocked()
	return statuses, nil
}

// attachLocked joins j to an existing flight: it will complete with the
// flight's result without a simulation of its own. The flight's
// preemption shield rises to the highest attached priority, so a
// higher-class tenant's deduped wait is never undone by a preemption
// aimed at the flight's original owner.
func (m *Manager) attachLocked(j *job, f *flight, owner Tenant) {
	j.deduped = true
	j.flight = f
	j.state = f.state // queued or running
	if f.state == StateRunning {
		j.startedAt = time.Now()
	}
	f.jobs = append(f.jobs, j)
	m.countJobLocked(owner.Name, func(c *jobCounts) { c.deduped++ })
	if owner.Priority > f.priority {
		f.priority = owner.Priority
	}
}

// canSee is the one visibility rule for job-addressed operations, live
// and journaled jobs alike: caller may observe (or act on) a job owned
// by owner in open mode (no registry), as a Gateway principal (fleet
// fronts, operators), as its owner, or when the job has no owner — an
// open-mode submission or a journal generation written before the
// registry existed. Over HTTP on a registry daemon every submission has
// an owner. Everything else reads exactly like an unknown job.
func canSee(registry *Registry, caller Tenant, owner string) bool {
	return registry == nil || caller.Gateway || owner == "" || owner == caller.Name
}

// visibleLocked returns the live job id when caller may see it, nil
// when it is unknown, evicted or invisible. A nil answer may fall
// through to the journal: a job's owner never changes, so its journal
// entry is judged the same way. Caller holds m.mu.
func (m *Manager) visibleLocked(caller Tenant, id string) *job {
	if j, ok := m.jobs[id]; ok && canSee(m.registry, caller, j.tenant) {
		return j
	}
	return nil
}

// Job returns the status of one job caller may see, result included
// when done.
func (m *Manager) Job(caller Tenant, id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.visibleLocked(caller, id)
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	return m.statusLocked(j, true), nil
}

// ListJobs lists the jobs caller may see, without result payloads:
// every retained job in submission order when ids is nil, otherwise the
// named ones, omitting unknown, evicted and invisible IDs alike.
func (m *Manager) ListJobs(caller Tenant, ids []string) []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ids == nil {
		ids = m.order
	}
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j := m.visibleLocked(caller, id); j != nil {
			out = append(out, m.statusLocked(j, false))
		}
	}
	return out
}

// Jobs lists every retained job in submission order, without result
// payloads.
func (m *Manager) Jobs() []JobStatus { return m.ListJobs(Tenant{Gateway: true}, nil) }

// Cancel moves a non-terminal job caller may see to canceled. A queued
// simulation whose subscribers are all canceled is skipped entirely; a
// running one finishes (a single simulation cannot be interrupted) and
// its result is still cached, but no canceled job flips back to done.
func (m *Manager) Cancel(caller Tenant, id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.visibleLocked(caller, id)
	if j == nil {
		return JobStatus{}, ErrUnknownJob
	}
	if j.state.Terminal() {
		return m.statusLocked(j, true), nil
	}
	m.cancelJobLocked(j, "canceled by client")
	st := m.statusLocked(j, true)
	m.pruneLocked()
	return st, nil
}

// cancelJobLocked finalizes one job as canceled, dropping its flight
// when it was the last live subscriber of a still-queued one.
func (m *Manager) cancelJobLocked(j *job, reason string) {
	j.state = StateCanceled
	j.err = errors.New(reason)
	j.finishedAt = time.Now()
	m.countJobLocked(j.tenant, func(c *jobCounts) { c.canceled++ })
	m.notifyLocked(j)
	m.dropAbandonedLocked(j.flight)
}

// dropAbandonedLocked drops a still-queued flight none of whose jobs is
// live: it leaves the dedup index (so later identical submissions start
// fresh instead of attaching to a doomed flight), its context is
// canceled so the simulation never starts, and its subqueue slot frees
// immediately instead of tombstoning the bounded queue until a worker
// skips it. A running flight is left alone: a single simulation cannot
// be interrupted, and poisoning its context would fail jobs that attach
// between now and its completion. Caller holds m.mu.
func (m *Manager) dropAbandonedLocked(f *flight) {
	if f == nil || f.state != StateQueued {
		return
	}
	for _, j := range f.jobs {
		if !j.state.Terminal() {
			return
		}
	}
	f.state = StateCanceled
	m.dropFlightLocked(f)
	m.sched.remove(f)
}

// DeadlineError rejects a submission at admission because its deadline
// cannot be met: either it already passed, or the estimated queue drain
// time exceeds it. The handler layer maps it to 503 with the structured
// code ErrCodeDeadlineUnmeetable, so clients distinguish "this worker
// is too loaded" (retry elsewhere) from a permanent rejection.
type DeadlineError struct {
	JobIndex int           // position in the submitted batch
	Wait     time.Duration // time left until the deadline (<= 0: passed)
	Estimate time.Duration // estimated queue drain at admission (0: unknown)
}

// Error implements error.
func (e *DeadlineError) Error() string {
	if e.Wait <= 0 {
		return fmt.Sprintf("server: job %d: deadline already expired at submission", e.JobIndex)
	}
	return fmt.Sprintf("server: job %d: deadline unmeetable: estimated queue drain %v exceeds the %v left before the deadline",
		e.JobIndex, e.Estimate.Round(time.Millisecond), e.Wait.Round(time.Millisecond))
}

// drainEstimateLocked estimates how long the queue (plus fresh incoming
// flights) takes to drain, from the EWMA of fresh flight durations and
// the live slot count. Zero until enough history exists. Caller holds
// m.mu.
func (m *Manager) drainEstimateLocked(fresh int) time.Duration {
	if m.avgFlightNs <= 0 || m.slots <= 0 {
		return 0
	}
	backlog := m.sched.total + fresh + m.counters.running
	return time.Duration(float64(backlog) * m.avgFlightNs / float64(m.slots))
}

// expireLoop periodically fails queued jobs whose deadline passed, so
// they stop occupying scheduler slots they can no longer use. Running
// jobs are left alone — a single simulation cannot be interrupted, and
// its result is still worth caching.
func (m *Manager) expireLoop() {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case now := <-t.C:
			m.expireQueued(now)
		}
	}
}

// expireQueued fails every queued job whose deadline passed, dropping
// flights left with no live subscribers from the queue entirely.
func (m *Manager) expireQueued(now time.Time) {
	var recs []journalEntry
	m.mu.Lock()
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state != StateQueued || j.deadline.IsZero() || now.Before(j.deadline) {
			continue
		}
		recs = append(recs, m.failJobLocked(j, fmt.Errorf("%w: expired after %v queued", ErrDeadlineExceeded, now.Sub(j.submittedAt).Round(time.Millisecond)), ReasonDeadline, "", 0))
		m.counters.deadlineExpired++
		m.dropAbandonedLocked(j.flight)
	}
	if len(recs) > 0 {
		m.pruneLocked()
	}
	m.mu.Unlock()
	m.journal.record(recs...)
}

// failJobLocked finalizes one job as failed with a machine-readable
// reason and returns its journal entry; worker and elapsed name the
// slot and run time of an executed flight ("" and 0 for a job failed
// queue-side). The caller owns any flight cleanup. Caller holds m.mu.
func (m *Manager) failJobLocked(j *job, err error, reason, worker string, elapsed time.Duration) journalEntry {
	j.state = StateFailed
	j.err = err
	j.reason = reason
	j.finishedAt = time.Now()
	j.elapsed = elapsed
	m.countJobLocked(j.tenant, func(c *jobCounts) { c.failed++ })
	m.notifyLocked(j)
	return journalEntry{
		ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
		State: StateFailed, Worker: worker, FinishedAt: j.finishedAt,
	}
}

// failureReason maps a flight error to the machine-readable Reason
// carried on JobStatus ("" for unclassified failures).
func failureReason(err error) string {
	var remoteErr *RemoteJobError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded):
		return ReasonDeadline
	case errors.Is(err, ErrQuarantined):
		return ReasonQuarantined
	case errors.As(err, &remoteErr):
		return remoteErr.Reason // propagate the peer's classification
	}
	return ""
}

// nextFlight blocks until the scheduler has a startable flight,
// returning ok=false once Drain closed the queue and nothing startable
// remains. Picking accounts one running slot to the flight's tenant,
// released by finishFlight (or startFlight when the flight is dead).
func (m *Manager) nextFlight() (*flight, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if f := m.sched.pick(); f != nil {
			return f, true
		}
		if m.qclosed {
			return nil, false
		}
		m.qcond.Wait()
	}
}

// worker is the one worker loop: it picks flights until Drain closes
// the queue and runs each on the fleet.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		f, ok := m.nextFlight()
		if !ok {
			return
		}
		if m.startFlight(f) {
			m.execFlight(f)
		}
	}
}

// startFlight moves a dequeued flight to running and reports whether it
// should execute; a flight whose subscribers all canceled while it was
// queued (or whose context died) is finalized instead.
func (m *Manager) startFlight(f *flight) bool {
	// Journal writes do file I/O; registered before the lock so it runs
	// after the explicit unlocks below.
	var recs []journalEntry
	defer func() { m.journal.record(recs...) }()
	m.mu.Lock()
	// Deadline enforcement at the last queue-side moment: subscribers
	// whose deadline passed while the flight waited fail fast instead of
	// riding a simulation they can no longer use.
	now := time.Now()
	for _, j := range f.jobs {
		if !j.state.Terminal() && !j.deadline.IsZero() && now.After(j.deadline) {
			recs = append(recs, m.failJobLocked(j, fmt.Errorf("%w: expired before the simulation could start", ErrDeadlineExceeded), ReasonDeadline, "", 0))
			m.counters.deadlineExpired++
		}
	}
	live := 0
	for _, j := range f.jobs {
		if !j.state.Terminal() {
			live++
		}
	}
	if live == 0 || f.ctx.Err() != nil {
		// Every subscriber canceled while queued (or the manager is
		// tearing down): skip the simulation. Finalize any straggler
		// jobs so no subscriber waits on a flight that will never run.
		for _, j := range f.jobs {
			if !j.state.Terminal() {
				m.cancelJobLocked(j, "canceled before the simulation started")
			}
		}
		m.dropFlightLocked(f)
		m.sched.release(f) // the pick's running slot, never used
		m.qcond.Broadcast()
		m.pruneLocked()
		m.mu.Unlock()
		return false
	}
	f.state = StateRunning
	m.counters.running++
	now = time.Now()
	for _, j := range f.jobs {
		if j.state == StateQueued {
			j.state = StateRunning
			j.startedAt = now
			m.notifyLocked(j)
		}
	}
	m.mu.Unlock()
	return true
}

// execFlight runs a started flight on the fleet to a terminal state.
// The fallback is this daemon's: a flight no fleet worker can take (all
// dead, ineligible, or behind an open breaker) runs on this goroutine,
// so queued flights are never orphaned. Every fresh result lands in the
// result cache under the key computed at submission — never
// re-digested, so a trace rewritten mid-flight cannot fail a successful
// run.
func (m *Manager) execFlight(f *flight) {
	spec := m.flightSpec(f)
	out, err := m.fleet.Run(f.ctx, spec, true)
	if errors.Is(err, ErrNoWorker) {
		start := time.Now()
		out.Worker = Local{}
		out.Status, err = Local{}.Run(f.ctx, spec)
		out.Elapsed = time.Since(start)
	}
	worker, remote := "local", false
	if out.Worker != nil {
		_, local := out.Worker.(Local)
		worker, remote = out.Worker.Name(), !local
	}
	var res sim.Result
	switch {
	case errors.Is(err, ErrQuarantined):
		worker = "quarantine"
	case err == nil:
		res = *out.Status.Result
		if f.key != "" && m.cache != nil {
			err = m.cache.PutKeyed(f.key, res)
		}
	}
	m.finishFlight(f, worker, res, out.Elapsed, out.Status.Cached, remote, err)
}

// flightSpec builds the JobSpec a fleet worker runs: the owning tenant
// (so a peer attributes work — and its fleet-wide dedup and quotas — to
// the original caller, not to this forwarding daemon), the widest
// deadline shared by every live subscriber, and the flight's analysis
// stream sink (local attempts feed it live; Stream is excluded from the
// wire and from sweep.Key). The deadline is set only when every live
// subscriber has one: a peer must never fail a flight early while a
// deadline-less subscriber is still waiting on it.
func (m *Manager) flightSpec(f *flight) JobSpec {
	spec := JobSpec{Label: f.label, Config: f.cfg, Tenant: f.tenant}
	if f.stream != nil && spec.Config.Analysis != nil {
		ac := *spec.Config.Analysis
		ac.Stream = f.stream.ingest
		spec.Config.Analysis = &ac
	}
	m.mu.Lock()
	latest, all := time.Time{}, true
	for _, j := range f.jobs {
		if j.state.Terminal() {
			continue
		}
		if j.deadline.IsZero() {
			all = false
			break
		}
		if j.deadline.After(latest) {
			latest = j.deadline
		}
	}
	m.mu.Unlock()
	if all && !latest.IsZero() {
		spec.DeadlineMs = latest.UnixMilli()
	}
	return spec
}

// finishFlight completes every job attached to a started flight with
// its outcome. worker names the slot that resolved the flight ("local"
// or a peer) for the journal and the per-worker metrics; cached marks
// results served from a cache (this daemon's or the executing peer's);
// remote marks executions that happened on a peer, counted separately
// because the peer's own counters record the simulation.
func (m *Manager) finishFlight(f *flight, worker string, res sim.Result, elapsed time.Duration, cached, remote bool, err error) {
	var recs []journalEntry
	m.mu.Lock()
	m.counters.running--
	m.dropFlightLocked(f)
	m.sched.release(f)
	// A finished flight frees capacity and (for capped tenants) a
	// concurrency slot; wake waiting workers to re-pick.
	m.qcond.Broadcast()
	switch {
	case err != nil:
		if errors.Is(err, ErrQuarantined) && f.key != "" {
			m.quarantined[f.key] = err
		}
		reason := failureReason(err)
		for _, j := range f.jobs {
			if !j.state.Terminal() {
				recs = append(recs, m.failJobLocked(j, err, reason, worker, elapsed))
			}
		}
	default:
		switch {
		case cached:
			// A flight-level resolution: global only, no owner share.
			m.counters.cacheHits++
		case remote:
			m.counters.remoteSims++
		default:
			m.counters.simulations++
		}
		if !cached && elapsed > 0 {
			// Fresh execution: fold its duration into the drain-estimate
			// EWMA that admission-time deadline shedding consults.
			const alpha = 0.3
			if m.avgFlightNs == 0 {
				m.avgFlightNs = float64(elapsed)
			} else {
				m.avgFlightNs += alpha * (float64(elapsed) - m.avgFlightNs)
			}
		}
		if res.Analysis != nil {
			m.counters.accumulateAnalysisLocked(res.Analysis.Totals)
		}
		ws := m.counters.worker(worker)
		ws.flights++
		if cached {
			ws.cacheHits++
		}
		ws.accumulate(res.Analysis)
		done := time.Now()
		for _, j := range f.jobs {
			if j.state.Terminal() {
				continue
			}
			j.state = StateDone
			j.cached = j.cached || cached
			j.finishedAt = done
			j.elapsed = elapsed
			j.result = &res
			m.countJobLocked(j.tenant, func(c *jobCounts) { c.completed++ })
			m.notifyLocked(j)
			recs = append(recs, journalEntry{
				ID: j.id, Key: j.key, Label: j.label, Tenant: j.tenant,
				State: StateDone, Worker: worker, FinishedAt: done,
			})
		}
	}
	m.pruneLocked()
	m.mu.Unlock()
	// Stream seal and journal write happen outside m.mu: finish closes
	// subscriber channels (the feed's lock) and record does file I/O.
	if f.stream != nil {
		f.stream.finish(res.Analysis, err)
	}
	m.journal.record(recs...)
}

// dropFlightLocked removes f from the dedup index so later identical
// submissions hit the cache (or start fresh) instead of attaching to a
// finished flight.
func (m *Manager) dropFlightLocked(f *flight) {
	if f.key != "" && m.flights[f.key] == f {
		delete(m.flights, f.key)
	}
	f.cancel()
}

// pruneLocked evicts the oldest terminal jobs beyond the retention
// cap, keeping the long-running daemon's memory bounded. Live jobs
// are always kept; evicted results stay reachable via the cache.
func (m *Manager) pruneLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].state.Terminal() {
			terminal++
		}
	}
	if terminal <= m.retention {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		if j := m.jobs[id]; terminal > m.retention && j.state.Terminal() {
			delete(m.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// Drain gracefully shuts the manager down: new submissions fail with
// ErrDraining, still-queued jobs are canceled, and running simulations
// are awaited until ctx expires. It is idempotent; concurrent calls
// all block until the drain completes.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		// Walk jobs, not the dedup index: key-less (uncacheable)
		// flights never enter m.flights but must be canceled too.
		for _, j := range m.jobs {
			if !j.state.Terminal() && j.flight != nil && j.flight.state == StateQueued {
				m.cancelJobLocked(j, "server shutting down")
			}
		}
		// Submit holds mu and checks draining, so no racing push;
		// workers exit nextFlight once nothing startable remains.
		m.qclosed = true
		m.qcond.Broadcast()
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.cancel()
		return nil
	case <-ctx.Done():
		m.cancel()
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// statusLocked renders a job for the wire.
func (m *Manager) statusLocked(j *job, withResult bool) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Label:       j.label,
		Tenant:      j.tenant,
		Key:         j.key,
		State:       j.state,
		Cached:      j.cached,
		Deduped:     j.deduped,
		SubmittedAt: j.submittedAt,
		ElapsedMs:   float64(j.elapsed) / float64(time.Millisecond),
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Reason = j.reason
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	if withResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}
