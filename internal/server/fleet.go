package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// ErrNoWorker reports a job no fleet worker can take: every worker is
// dead, ineligible, or already lost the job — and, for a caller with a
// fallback of its own, waiting on a circuit breaker counts as "cannot
// take it". What that means is the caller's call: a daemon runs the job
// itself, a campaign fails the unit.
var ErrNoWorker = errors.New("server: no fleet worker can take the job")

// FleetConfig tunes a Fleet. Zero values select the defaults.
type FleetConfig struct {
	// HedgeAfter launches a second attempt of a job whose only attempt
	// has run this long, on another eligible worker with a free slot;
	// the first result wins. 0 disables fixed-threshold hedging.
	HedgeAfter time.Duration
	// HedgeAdaptive, with HedgeAfter 0, derives the threshold from the
	// fleet's own completions: 3× the p95 of fresh attempt latencies,
	// once 8 exist.
	HedgeAdaptive bool
	// PoisonThreshold quarantines a job after that many of its attempts
	// each ended in a transport failure (0 = 3, negative = never).
	PoisonThreshold int
	// ReprobeInterval is how long an open breaker waits before
	// re-probing its worker with a real job (0 = 3s).
	ReprobeInterval time.Duration
	// BreakerProbeLimit retires a worker for good after that many
	// consecutive failed re-probes (0 = 4, negative = never).
	BreakerProbeLimit int
}

// FleetStats counts what a Fleet did.
type FleetStats struct {
	Retries        int // replacement attempts launched after a lost attempt
	Lost           int // attempts lost to a dead, shedding or ineligible worker
	Rejoins        int // re-probes that closed a worker's breaker again
	HedgesLaunched int // second attempts started for stragglers
	HedgesWon      int // jobs a hedge attempt finished first
	Quarantined    int // jobs failed for killing PoisonThreshold workers
	Down           int // workers whose breaker is not closed right now
}

// Outcome is the deciding attempt of one Fleet.Run.
type Outcome struct {
	Status  JobStatus     // final status; Result is set on success
	Worker  Remote        // the worker that ran the deciding attempt (nil if none did)
	Elapsed time.Duration // the deciding attempt's wall clock
}

// Fleet runs jobs on a set of Remote workers, each behind a circuit
// breaker (breaker.go) and holding at most Slots() attempts at once.
// It is the one execution core behind both the daemon's worker loop
// (Manager) and fleet campaigns (internal/dispatch): worker choice,
// outcome classification (see Remote), retries, straggler hedging and
// poison quarantine live here and nowhere else.
type Fleet struct {
	cfg     FleetConfig
	workers []*fleetWorker

	mu        sync.Mutex
	wake      chan struct{} // closed and replaced on every release
	waiting   int           // Run calls blocked for a worker; they go before hedges
	latencies []time.Duration
	stats     FleetStats
}

// fleetWorker is one Remote's fleet state, guarded by Fleet.mu.
type fleetWorker struct {
	Remote
	slots, busy int
	breaker     breaker
	// generation counts rejoins: a tried mark recorded against an
	// earlier incarnation of the worker no longer applies.
	generation int
}

// NewFleet arms one breaker per worker: one transport failure opens
// it, ReprobeInterval later a real job re-probes the worker.
func NewFleet(workers []Remote, cfg FleetConfig) *Fleet {
	if cfg.PoisonThreshold == 0 {
		cfg.PoisonThreshold = 3
	}
	if cfg.ReprobeInterval <= 0 {
		cfg.ReprobeInterval = 3 * time.Second
	}
	if cfg.BreakerProbeLimit == 0 {
		cfg.BreakerProbeLimit = 4
	}
	f := &Fleet{cfg: cfg, wake: make(chan struct{})}
	for _, r := range workers {
		f.workers = append(f.workers, &fleetWorker{
			Remote:  r,
			slots:   max(r.Slots(), 1),
			breaker: breaker{threshold: 1, reprobe: cfg.ReprobeInterval, probeLimit: cfg.BreakerProbeLimit},
		})
	}
	return f
}

// Slots is the fleet's total attempt capacity.
func (f *Fleet) Slots() int {
	n := 0
	for _, w := range f.workers {
		n += w.slots
	}
	return n
}

// Stats returns a snapshot of the fleet's counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	for _, w := range f.workers {
		if w.breaker.state != breakerClosed {
			s.Down++
		}
	}
	return s
}

// verdict is the class of one attempt's outcome (see Remote).
type verdict int

const (
	verdictDone       verdict = iota
	verdictFailed             // the job fails: it would fail the same way anywhere
	verdictDeadline           // retry elsewhere while the job's deadline holds
	verdictIneligible         // another worker; no tried mark, no crash
	verdictTransport          // breaker failure plus a crash
)

// classify is the fleet's one outcome classifier, documented on Remote.
func classify(err error) verdict {
	var remoteErr *RemoteJobError
	switch {
	case err == nil:
		return verdictDone
	case errors.As(err, &remoteErr):
		if remoteErr.Reason == ReasonDeadline {
			return verdictDeadline
		}
		return verdictFailed
	case errors.Is(err, ErrPermanent):
		return verdictFailed
	case errors.Is(err, ErrDeadlineExceeded):
		return verdictDeadline
	case errors.Is(err, ErrIneligible):
		return verdictIneligible
	}
	return verdictTransport
}

// jobRun is one Run call's view of its job. Only Run's goroutine
// touches it; the claim paths read it under Fleet.mu.
type jobRun struct {
	fallback   bool
	tried      map[*fleetWorker]int // worker -> generation the attempt was lost in
	ineligible map[*fleetWorker]bool
	crashes    int
}

// attempt is one execution of a job on one worker.
type attempt struct {
	w      *fleetWorker
	hedge  bool
	probe  bool // the claim was the worker's half-open re-probe
	gen    int  // the worker's generation at claim time
	start  time.Time
	st     JobStatus
	err    error
	finish time.Time
}

// Run executes spec on the fleet and returns the deciding attempt. It
// picks a worker with a free slot whose breaker allows it, hedges a
// straggling attempt onto another eligible worker (first result wins;
// a hedge never carries the config's analysis Stream), retries lost
// attempts on other workers, and quarantines the job after
// PoisonThreshold crashes. fallback says the caller runs the job
// itself when Run returns ErrNoWorker: Run then gives up as soon as no
// worker can take the job now, instead of waiting for a broken worker's
// re-probe.
func (f *Fleet) Run(ctx context.Context, spec JobSpec, fallback bool) (Outcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops a losing attempt
	j := &jobRun{fallback: fallback, tried: map[*fleetWorker]int{}, ineligible: map[*fleetWorker]bool{}}
	done := make(chan *attempt, 2) // primary + hedge: never blocks a loser
	var inflight []*attempt
	var out Outcome
	var lastErr error
	for {
		if len(inflight) == 0 {
			a, err := f.acquire(ctx, j, lastErr != nil)
			if err != nil {
				if errors.Is(err, ErrNoWorker) && lastErr != nil {
					err = fmt.Errorf("%w (last: %v)", err, lastErr)
				}
				return out, err
			}
			inflight = append(inflight, f.launch(ctx, a, spec, done))
		}
		var timer *time.Timer
		var timerC <-chan time.Time
		var wakeC <-chan struct{}
		if len(inflight) == 1 {
			h, wait, wake := f.hedge(j, inflight[0])
			if h != nil {
				inflight = append(inflight, f.launch(ctx, h, spec, done))
				continue
			}
			wakeC = wake
			if wait > 0 {
				timer = time.NewTimer(wait)
				timerC = timer.C
			}
		}
		var a *attempt
		select {
		case a = <-done:
		case <-timerC:
		case <-wakeC:
		case <-ctx.Done():
		}
		if timer != nil {
			timer.Stop()
		}
		if a == nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			continue
		}
		inflight = removeAttempt(inflight, a)
		out = Outcome{Status: a.st, Worker: a.w.Remote, Elapsed: a.finish.Sub(a.start)}
		if stop, err := f.settle(ctx, j, spec, a); stop {
			return out, err
		}
		lastErr = a.err
	}
}

// settle applies one finished attempt to its job and reports whether it
// decided the job (with the job's error, nil on success).
func (f *Fleet) settle(ctx context.Context, j *jobRun, spec JobSpec, a *attempt) (bool, error) {
	v := classify(a.err)
	switch {
	case v == verdictDone:
		if a.hedge {
			f.mu.Lock()
			f.stats.HedgesWon++
			f.mu.Unlock()
		}
		return true, nil
	case v == verdictFailed:
		return true, a.err
	case ctx.Err() != nil:
		return true, ctx.Err()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Lost++
	if v == verdictIneligible {
		j.ineligible[a.w] = true
		return false, nil
	}
	j.tried[a.w] = a.gen
	if v == verdictDeadline {
		if spec.DeadlineMs > 0 && time.Now().UnixMilli() >= spec.DeadlineMs {
			return true, a.err
		}
		return false, nil
	}
	j.crashes++
	if p := f.cfg.PoisonThreshold; p > 0 && j.crashes >= p {
		f.stats.Quarantined++
		return true, fmt.Errorf("%w: execution killed %d successive workers (last: %v)", ErrQuarantined, j.crashes, a.err)
	}
	return false, nil
}

func removeAttempt(as []*attempt, a *attempt) []*attempt {
	for i, x := range as {
		if x == a {
			return append(as[:i], as[i+1:]...)
		}
	}
	return as
}

// acquire blocks until a worker can take the job and claims one of its
// slots; retry counts the claim as a replacement for a lost attempt.
func (f *Fleet) acquire(ctx context.Context, j *jobRun, retry bool) (*attempt, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		now := time.Now()
		w, wait, ok := f.pickLocked(j, nil, now)
		if w != nil {
			if retry {
				f.stats.Retries++
			}
			return f.claimLocked(w, now, false), nil
		}
		if !ok {
			return nil, ErrNoWorker
		}
		wake := f.wake
		f.waiting++
		f.mu.Unlock()
		var timer *time.Timer
		var timerC <-chan time.Time
		if wait > 0 {
			timer = time.NewTimer(wait)
			timerC = timer.C
		}
		select {
		case <-wake:
		case <-timerC:
		case <-ctx.Done():
		}
		if timer != nil {
			timer.Stop()
		}
		f.mu.Lock()
		f.waiting--
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// hedge claims a second worker for the job's only attempt a once a has
// outlived the straggler threshold. Otherwise it returns how long until
// a becomes a straggler (0 when it is one, or unknown) and, when a
// fleet change may make a hedge possible, the channel that signals it.
func (f *Fleet) hedge(j *jobRun, a *attempt) (*attempt, time.Duration, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	thr, ok := f.hedgeThresholdLocked()
	if !ok {
		if f.cfg.HedgeAdaptive {
			return nil, 0, f.wake // the threshold appears with more completions
		}
		return nil, 0, nil
	}
	now := time.Now()
	if wait := a.start.Add(thr).Sub(now); wait > 0 {
		return nil, wait, nil
	}
	if f.waiting > 0 {
		return nil, 0, f.wake // queued work goes first
	}
	if w, _, _ := f.pickLocked(j, a.w, now); w != nil {
		f.stats.HedgesLaunched++
		return f.claimLocked(w, now, true), 0, nil
	}
	return nil, 0, f.wake
}

// pickLocked returns the best worker that can take the job right now
// (skipping exclude), how long until a waitable worker's re-probe
// window opens, and whether any worker could take the job now or
// later. Probe-ready workers come first, so a recovered worker rejoins
// promptly; then the largest free share of slots, then fleet order.
func (f *Fleet) pickLocked(j *jobRun, exclude *fleetWorker, now time.Time) (best *fleetWorker, wait time.Duration, ok bool) {
	for _, w := range f.workers {
		b := &w.breaker
		if w == exclude || b.state == breakerDead || j.ineligible[w] {
			continue
		}
		if gen, tried := j.tried[w]; tried && gen == w.generation && b.state == breakerClosed {
			continue
		}
		switch {
		case b.state == breakerOpen && now.Before(b.openedAt.Add(b.reprobe)):
			if !j.fallback {
				ok = true
				if d := b.openedAt.Add(b.reprobe).Sub(now); wait == 0 || d < wait {
					wait = d
				}
			}
			continue
		case b.state == breakerHalfOpen && b.probing:
			ok = ok || !j.fallback // the probe's outcome wakes waiters
			continue
		}
		ok = true
		if w.busy >= w.slots {
			continue
		}
		if best == nil || betterWorker(w, best) {
			best = w
		}
	}
	return best, wait, ok
}

// betterWorker orders free workers: a pending re-probe first, then the
// larger free share of slots.
func betterWorker(w, than *fleetWorker) bool {
	if probe, thanProbe := w.breaker.state != breakerClosed, than.breaker.state != breakerClosed; probe != thanProbe {
		return probe
	}
	return (w.slots-w.busy)*than.slots > (than.slots-than.busy)*w.slots
}

// claimLocked books one slot of w for a new attempt.
func (f *Fleet) claimLocked(w *fleetWorker, now time.Time, hedge bool) *attempt {
	_, probe := w.breaker.allow(now)
	w.busy++
	return &attempt{w: w, hedge: hedge, probe: probe, gen: w.generation, start: now}
}

// launch runs attempt a in its own goroutine, which releases the slot
// and feeds the worker's breaker before reporting on done.
func (f *Fleet) launch(ctx context.Context, a *attempt, spec JobSpec, done chan<- *attempt) *attempt {
	if a.hedge && spec.Config.Analysis != nil && spec.Config.Analysis.Stream != nil {
		ac := *spec.Config.Analysis
		ac.Stream = nil
		spec.Config.Analysis = &ac
	}
	go func() {
		st, err := a.w.Run(ctx, spec)
		if err == nil && st.Result == nil {
			err = fmt.Errorf("server: %s finished job without a result", a.w.Name())
		}
		a.st, a.err, a.finish = st, err, time.Now()
		f.release(a, ctx.Err() == nil)
		done <- a
	}()
	return a
}

// release frees a's slot and feeds its outcome to the worker's breaker.
// An attempt this fleet canceled (a hedge loser, a finished or canceled
// job) says nothing about the worker; neither do deadline sheds and
// ineligibility. Every release wakes blocked claims.
func (f *Fleet) release(a *attempt, judged bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, b := a.w, &a.w.breaker
	w.busy--
	v := classify(a.err)
	switch {
	case judged && v == verdictTransport:
		b.failure(a.finish)
	case judged && (v == verdictDone || v == verdictFailed):
		if b.success() {
			f.stats.Rejoins++
			w.generation++
		}
		if v == verdictDone && !a.st.Cached && f.cfg.HedgeAdaptive {
			f.latencies = append(f.latencies, a.finish.Sub(a.start))
		}
	case a.probe:
		b.probing = false // an inconclusive probe: let the next job probe
	}
	close(f.wake)
	f.wake = make(chan struct{})
}

// hedgeThresholdLocked resolves the straggler threshold: the fixed
// HedgeAfter, or (HedgeAdaptive) 3× the p95 of fresh attempt latencies
// once enough samples exist.
func (f *Fleet) hedgeThresholdLocked() (time.Duration, bool) {
	if f.cfg.HedgeAfter > 0 {
		return f.cfg.HedgeAfter, true
	}
	if !f.cfg.HedgeAdaptive {
		return 0, false
	}
	return adaptiveHedgeThreshold(f.latencies)
}

// adaptiveHedgeThreshold derives a straggler cutoff from observed
// fresh-simulation latencies: 3× p95 with a 250ms floor, defined only
// once hedgeMinSamples latencies exist.
func adaptiveHedgeThreshold(latencies []time.Duration) (time.Duration, bool) {
	const hedgeMinSamples = 8
	if len(latencies) < hedgeMinSamples {
		return 0, false
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[(len(sorted)*95+99)/100-1]
	thr := 3 * p95
	if thr < 250*time.Millisecond {
		thr = 250 * time.Millisecond
	}
	return thr, true
}

// Local is the in-process worker: it runs simulations on this machine,
// Workers at a time. A failed simulation is permanent (ErrPermanent).
type Local struct{ Workers int }

// Name implements Remote.
func (Local) Name() string { return "local" }

// Slots implements Remote.
func (l Local) Slots() int { return l.Workers }

// Run implements Remote. A started simulation cannot be interrupted;
// ctx is only checked before it starts.
func (Local) Run(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return JobStatus{}, err
	}
	start := time.Now()
	sys, err := sim.New(spec.Config)
	var res sim.Result
	if err == nil {
		res, err = sys.Run()
	}
	st := JobStatus{Label: spec.Label, ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond)}
	if err != nil {
		st.State, st.Error = StateFailed, err.Error()
		return st, fmt.Errorf("%w (%w)", err, ErrPermanent)
	}
	st.State, st.Result = StateDone, &res
	return st, nil
}
