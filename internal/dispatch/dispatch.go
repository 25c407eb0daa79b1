// Package dispatch shards a sweep campaign across a fleet of ccsimd
// daemons plus an optional local worker pool, turning the single-node
// campaign engine (internal/sweep) into a horizontally scalable one
// while preserving sweep.Run's contract exactly:
//
//   - results come back in input order, bit-identical to a local run
//     (every worker executes the same deterministic simulator),
//   - the first failing simulation stops dispatch and is returned as a
//     *sweep.JobError carrying the lowest failed input index,
//   - cancelling ctx stops dispatch, cancels outstanding remote jobs
//     best-effort, and returns ctx.Err(),
//   - a local sweep.Cache is consulted before any dispatch and every
//     completed result is written back to it, so an interrupted
//     distributed campaign resumes locally (or on a different fleet).
//
// Run is a thin driver over server.Fleet, the execution core it shares
// with a ccsimd -peers front: it health-probes the endpoints
// (client.ProbePeers), singleflights identical configs on sweep.Key so
// each distinct config simulates exactly once per campaign, serves the
// local cache first, reports progress and keeps the first error. The
// fleet does the rest — capacity-weighted worker choice, per-endpoint
// circuit breakers that let a crashed-then-restarted daemon rejoin on
// re-probe, retries on another worker, straggler hedging (first result
// wins, never double-counted) and poison quarantine. A unit no live or
// recoverable worker can take fails the campaign.
package dispatch

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Options configures a distributed campaign.
type Options struct {
	// Endpoints are ccsimd base URLs. Each live endpoint contributes
	// in-flight capacity equal to its advertised worker count.
	Endpoints []string

	// LocalWorkers adds that many in-process simulation slots to the
	// fleet (0 = none). Local slots can always run trace-file configs.
	LocalWorkers int

	// Cache, when non-nil, is consulted before dispatch and receives
	// every completed result, so interrupted campaigns resume locally.
	Cache *sweep.Cache

	// Progress, when non-nil, observes one event per input job, with
	// monotonically increasing Done (see sweep.Options.Progress).
	Progress func(sweep.Event)

	// ProbeTimeout bounds the initial health probe per endpoint
	// (default 5s). Endpoints failing the probe are dropped for the
	// whole campaign.
	ProbeTimeout time.Duration

	// PollInterval is the remote status-poll period (0 = client
	// default). Tests shrink it.
	PollInterval time.Duration

	// Token is the bearer credential sent to every endpoint — required
	// against daemons with a tenant registry (ccsimd -tenants).
	Token string

	// ReprobeInterval is how long an open circuit breaker waits before
	// re-probing its endpoint with a real unit (default 3s). Crashed
	// daemons that restart within the campaign rejoin on this cadence.
	ReprobeInterval time.Duration

	// BreakerProbeLimit retires an endpoint permanently after that many
	// consecutive failed re-probes (default 4; negative = keep probing
	// for the whole campaign).
	BreakerProbeLimit int

	// HedgeAfter enables straggler hedging: an in-flight unit older
	// than this is attempted a second time on another eligible worker,
	// first result wins. 0 disables fixed-threshold hedging (see
	// HedgeAdaptive).
	HedgeAfter time.Duration

	// HedgeAdaptive, when HedgeAfter is 0, derives the straggler
	// threshold from the campaign itself: 3× the p95 of fresh unit
	// latencies, once at least 8 units have completed.
	HedgeAdaptive bool

	// PoisonThreshold quarantines a unit after that many attempts that
	// each ended in a worker-killing transport failure (default 3;
	// negative = never quarantine).
	PoisonThreshold int

	// Stats, when non-nil, is filled with campaign totals before Run
	// returns.
	Stats *Stats
}

// Stats summarizes how a campaign used the fleet.
type Stats struct {
	Endpoints      int // endpoints that passed the probe and ended the campaign healthy
	DeadEndpoints  int // endpoints that failed the probe or ended with a non-closed breaker
	Slots          int // total in-flight capacity at start, local slots included
	Simulations    int // distinct configs freshly simulated fleet-wide
	CacheHits      int // jobs served from a cache (local or a daemon's)
	Deduped        int // jobs that shared another identical job's simulation
	Retries        int // attempts lost to a dead, shedding or ineligible worker, each retried elsewhere unless its unit ended
	Rejoins        int // circuit-breaker re-probes that brought an endpoint back
	HedgesLaunched int // second attempts started for straggling units
	HedgesWon      int // hedged attempts that beat the original
	Quarantined    int // units failed for killing PoisonThreshold workers
}

// unit is one distinct simulation: all input jobs sharing a sweep.Key
// collapse onto it (singleflight).
type unit struct {
	key     string // content address; "" for uncacheable configs
	job     sweep.Job
	indices []int // input positions served by this unit
	err     error // terminal failure
}

// hasTraces reports whether the unit's config replays trace files.
func (u *unit) hasTraces() bool {
	for _, p := range u.job.Config.TraceFiles {
		if p != "" {
			return true
		}
	}
	return false
}

// Run executes jobs across the fleet described by opts and returns
// results in input order. See the package comment for the contract.
func Run(ctx context.Context, jobs []sweep.Job, opts Options) ([]sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	timeout := opts.ProbeTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var workers []server.Remote
	var roots []string // live endpoints' advertised trace roots
	var probeErrs []error
	for _, pr := range client.ProbePeers(ctx, opts.Endpoints, opts.Token, timeout) {
		if pr.Err != nil {
			probeErrs = append(probeErrs, fmt.Errorf("dispatch: endpoint %s: %w", pr.Endpoint, pr.Err))
			continue
		}
		if opts.PollInterval > 0 {
			pr.Peer.PollInterval = opts.PollInterval
		}
		workers = append(workers, pr.Peer)
		roots = append(roots, pr.Health.TraceRoot)
	}
	if opts.LocalWorkers > 0 {
		workers = append(workers, server.Local{Workers: opts.LocalWorkers})
	}
	fleet := server.NewFleet(workers, server.FleetConfig{
		HedgeAfter:        opts.HedgeAfter,
		HedgeAdaptive:     opts.HedgeAdaptive,
		PoisonThreshold:   opts.PoisonThreshold,
		ReprobeInterval:   opts.ReprobeInterval,
		BreakerProbeLimit: opts.BreakerProbeLimit,
	})
	stats := Stats{Endpoints: len(roots), DeadEndpoints: len(probeErrs), Slots: fleet.Slots()}
	defer func() {
		if opts.Stats != nil {
			*opts.Stats = stats
		}
	}()
	if len(workers) == 0 {
		return nil, fmt.Errorf("dispatch: no usable workers: every endpoint failed its health probe (%s) and no local workers are configured", errJoin(probeErrs))
	}

	d := &dispatcher{
		ctx:     ctx,
		jobs:    jobs,
		results: make([]sim.Result, len(jobs)),
		opts:    opts,
		stats:   &stats,
		failed:  make(chan struct{}),
	}
	units, live := d.buildUnits()
	if err := checkTraceEligibility(live, roots, opts.LocalWorkers > 0); err != nil {
		return nil, err
	}

	// One driver goroutine per fleet slot feeds units to the fleet in
	// input order; the first failure stops the feed.
	next := make(chan *unit)
	var wg sync.WaitGroup
	for i := 0; i < stats.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				d.run(fleet, u)
			}
		}()
	}
feed:
	for _, u := range live {
		select {
		case next <- u:
		case <-ctx.Done():
			break feed
		case <-d.failed:
			break feed
		}
	}
	close(next)
	wg.Wait()

	// An endpoint that ends the campaign with a non-closed breaker died
	// mid-campaign (and never rejoined): report it dead.
	fs := fleet.Stats()
	stats.Endpoints -= fs.Down
	stats.DeadEndpoints += fs.Down
	stats.Retries = fs.Lost
	stats.Rejoins = fs.Rejoins
	stats.HedgesLaunched = fs.HedgesLaunched
	stats.HedgesWon = fs.HedgesWon
	stats.Quarantined = fs.Quarantined

	// Mirror sweep.Run: the recorded failure with the lowest input
	// index wins; an external cancellation with no recorded failure
	// surfaces as ctx.Err().
	var firstErr *sweep.JobError
	for _, u := range units {
		if u.err == nil {
			continue
		}
		idx := u.indices[0]
		if firstErr == nil || idx < firstErr.Index {
			firstErr = &sweep.JobError{Index: idx, Label: jobs[idx].Label, Err: u.err}
		}
	}
	if firstErr != nil {
		return d.results, firstErr
	}
	if err := ctx.Err(); err != nil {
		return d.results, err
	}
	return d.results, nil
}

// dispatcher is the shared state of one Run call.
type dispatcher struct {
	ctx     context.Context
	jobs    []sweep.Job
	results []sim.Result
	opts    Options
	stats   *Stats

	mu       sync.Mutex    // guards stats once units run
	failed   chan struct{} // closed by the first unit failure: dispatch stops
	failOnce sync.Once

	progMu sync.Mutex
	done   int // finished input jobs; guarded by progMu
}

// buildUnits collapses the input jobs onto distinct units (singleflight
// on sweep.Key) and completes local cache hits immediately, so resumed
// campaigns touch the fleet only for missing configs. It returns every
// unit and the ones still to run. Uncacheable configs each get their
// own unit.
func (d *dispatcher) buildUnits() (units, live []*unit) {
	byKey := map[string]*unit{}
	for i, job := range d.jobs {
		key, _ := sweep.Key(job.Config) // "" when uncacheable
		if key != "" {
			if u, ok := byKey[key]; ok {
				u.indices = append(u.indices, i)
				continue
			}
		}
		u := &unit{key: key, job: job, indices: []int{i}}
		units = append(units, u)
		if key != "" {
			byKey[key] = u
		}
	}
	for _, u := range units {
		if d.opts.Cache != nil && u.key != "" {
			if res, ok := d.opts.Cache.Lookup(u.key); ok {
				d.stats.CacheHits += len(u.indices)
				d.fill(u, res)
				d.report(u, true, true, 0, nil)
				continue
			}
		}
		live = append(live, u)
	}
	return units, live
}

// checkTraceEligibility rejects, up front and with a clear error, any
// trace-file config that no fleet worker can faithfully execute: remote
// daemons open trace paths on their own filesystem, so only endpoints
// advertising a shared trace root covering the paths (or local
// workers) qualify.
func checkTraceEligibility(units []*unit, roots []string, local bool) error {
	if local {
		return nil
	}
	for _, u := range units {
		if !u.hasTraces() {
			continue
		}
		lastErr := fmt.Errorf("no endpoint is live")
		eligible := false
		for _, root := range roots {
			if lastErr = client.ValidateTraceFiles(u.job.Config, root); lastErr == nil {
				eligible = true
				break
			}
		}
		if !eligible {
			return fmt.Errorf("dispatch: job %q cannot run anywhere in the fleet: %w (add local workers, or endpoints started with -trace-root over a shared directory)", u.job.Label, lastErr)
		}
	}
	return nil
}

// run executes one unit on the fleet and lands its outcome: the result
// (written back to the local cache) or the campaign's failure. A unit
// reached after the campaign failed or was cancelled is skipped.
func (d *dispatcher) run(fleet *server.Fleet, u *unit) {
	select {
	case <-d.failed:
		return
	default:
	}
	if d.ctx.Err() != nil {
		return
	}
	out, err := fleet.Run(d.ctx, server.JobSpec{Label: u.job.Label, Config: u.job.Config}, false)
	if err == nil && d.opts.Cache != nil && u.key != "" {
		err = d.opts.Cache.PutKeyed(u.key, *out.Status.Result)
	}
	switch {
	case err == nil:
		d.fill(u, *out.Status.Result)
		d.mu.Lock()
		if out.Status.Cached {
			d.stats.CacheHits++
		} else {
			d.stats.Simulations++
		}
		d.stats.Deduped += len(u.indices) - 1
		d.mu.Unlock()
		d.report(u, out.Status.Cached, false, out.Elapsed, nil)
	case d.ctx.Err() != nil:
		// Abandoned with the campaign: Run reports ctx.Err().
	default:
		u.err = err
		d.failOnce.Do(func() { close(d.failed) })
		d.report(u, false, false, out.Elapsed, err)
	}
}

// fill writes one result into every input slot the unit serves.
func (d *dispatcher) fill(u *unit, res sim.Result) {
	for _, idx := range u.indices {
		d.results[idx] = res
	}
}

// report emits one progress event per input job of the unit, under the
// same monotonic Done counter sweep.Run guarantees. The first index is
// the representative; the others are marked Deduped.
func (d *dispatcher) report(u *unit, cached, fromLocalCache bool, elapsed time.Duration, err error) {
	if d.opts.Progress == nil {
		d.progMu.Lock()
		d.done += len(u.indices)
		d.progMu.Unlock()
		return
	}
	d.progMu.Lock()
	defer d.progMu.Unlock()
	for n, idx := range u.indices {
		d.done++
		ev := sweep.Event{
			Index:   idx,
			Total:   len(d.jobs),
			Done:    d.done,
			Label:   d.jobs[idx].Label,
			Key:     u.key,
			Cached:  cached,
			Deduped: n > 0 && !fromLocalCache,
			Err:     err,
		}
		if n == 0 && !cached {
			ev.Elapsed = elapsed
		}
		d.opts.Progress(ev)
	}
}

// SplitEndpoints parses a comma-separated endpoint list flag
// ("host1:8344, host2:8344") into trimmed, non-empty entries — the
// shared parser behind ccsim -servers, experiments -servers, and
// ccsimd -peers.
func SplitEndpoints(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// errJoin renders probe failures compactly.
func errJoin(errs []error) string {
	if len(errs) == 0 {
		return "no endpoints given"
	}
	parts := make([]string, len(errs))
	for i, err := range errs {
		parts[i] = err.Error()
	}
	return strings.Join(parts, "; ")
}
