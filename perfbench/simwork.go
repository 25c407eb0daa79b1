package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Instruction budgets per core. fig7-single runs the paper's
// single-core group at 1M warm-up + 1M measured; fig7-eight runs the
// experiments' Quick scale, 300k + 150k per core, so its figures
// describe the warmed-up regime Fig 7b is measured in.
const (
	singleWarmup = 1_000_000
	singleRun    = 1_000_000
	eightWarmup  = 300_000
	eightRun     = 150_000
	// eightMixes is how many mixes a seed draws. A run walks them in
	// order and starts over when time remains; twenty seconds cover
	// about all of them, so a run's figures rest on a fixed number of
	// mixes however fast the host is.
	eightMixes = 16
	// simSetupReps is how many times a run sets up; setup_s is the
	// median. Set-up takes under a millisecond here, so many
	// repetitions are cheap and keep the median steady.
	simSetupReps = 101
)

// fig7SingleJobs is the paper's Fig 7a group: every workload under
// every mechanism, single core, open-row, one channel.
func fig7SingleJobs(seed uint64) []sweep.Job {
	var jobs []sweep.Job
	for _, w := range workload.Names() {
		for _, m := range sim.MechanismKinds() {
			cfg := sim.DefaultConfig(w)
			cfg.Mechanism = m
			cfg.WarmupInstructions = singleWarmup
			cfg.RunInstructions = singleRun
			cfg.Seed = seed
			jobs = append(jobs, sweep.Job{Label: w + "/" + m.String(), Config: cfg})
		}
	}
	return jobs
}

// fig7EightJobs is the Fig 7b group: seed-chosen eight-core mixes under
// every mechanism, closed-row, two channels, grouped one mix per unit.
func fig7EightJobs(seed uint64) [][]sweep.Job {
	var units [][]sweep.Job
	for i, mix := range workload.EightCoreMixes(seed, eightMixes) {
		var unit []sweep.Job
		for _, m := range sim.MechanismKinds() {
			cfg := sim.DefaultConfig(mix...)
			cfg.Mechanism = m
			cfg.WarmupInstructions = eightWarmup
			cfg.RunInstructions = eightRun
			cfg.Seed = seed
			unit = append(unit, sweep.Job{Label: fmt.Sprintf("mix%02d/%s", i, m), Config: cfg})
		}
		units = append(units, unit)
	}
	return units
}

// instructions is the work one config simulates: warm-up plus measured
// instructions on every core.
func instructions(cfg sim.Config) float64 {
	return float64((cfg.WarmupInstructions + cfg.RunInstructions) * uint64(len(cfg.Workloads)))
}

// ran is one completed config with its result and wall time.
type ran struct {
	job     sweep.Job
	res     sim.Result
	elapsed time.Duration
}

// unitStat is one unit of work: its configs, simulated instructions
// and wall time in seconds.
type unitStat struct {
	configs int
	instr   float64
	wall    float64
}

// setRates records the end-to-end figures that are medians over units
// of work, each unit's rate scaled by how many units ran at once: a
// median shrugs off the host's short slowdowns that a total absorbs.
func setRates(r *report, units []unitStat, concurrency int) {
	var walls, configs, instr []float64
	for _, u := range units {
		walls = append(walls, u.wall)
		configs = append(configs, float64(u.configs*concurrency)/u.wall)
		instr = append(instr, u.instr*float64(concurrency)/u.wall/1e6)
	}
	r.set("wall_s", median(walls))
	r.set("configs_per_s", median(configs))
	r.set("sim_minstr_per_s", median(instr))
}

// campaign is what the in-process loop measured.
type campaign struct {
	done     []ran
	units    []unitStat
	measured time.Duration
}

// runCampaign submits units of work to sweep.Run, one after another
// and cycling through units, until d has elapsed (always at least one
// unit). fig7-single repeats its one unit, fig7-eight walks its mixes.
func runCampaign(ctx context.Context, units [][]sweep.Job, d time.Duration) (campaign, error) {
	var c campaign
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		jobs := units[i%len(units)]
		elapsed := make([]time.Duration, len(jobs))
		t := time.Now()
		results, err := sweep.Run(ctx, jobs, sweep.Options{
			Workers:  simWorkers,
			Progress: func(ev sweep.Event) { elapsed[ev.Index] = ev.Elapsed },
		})
		if err != nil {
			return c, err
		}
		c.add(jobs, results, elapsed, time.Since(t))
	}
	c.measured = time.Since(start)
	return c, nil
}

// add records one finished unit of work.
func (c *campaign) add(jobs []sweep.Job, results []sim.Result, elapsed []time.Duration, wall time.Duration) {
	u := unitStat{configs: len(jobs), wall: wall.Seconds()}
	for j, res := range results {
		c.done = append(c.done, ran{job: jobs[j], res: res, elapsed: elapsed[j]})
		u.instr += instructions(jobs[j].Config)
	}
	c.units = append(c.units, u)
}

// setE2E records the end-to-end metrics of a campaign whose units ran
// one after another.
func (c campaign) setE2E(r *report) {
	var lat []float64
	for _, d := range c.done {
		lat = append(lat, ms(d.elapsed))
	}
	setRates(r, c.units, 1)
	r.setPct("config_p50_ms", percentile(lat, 50))
	r.setPct("config_p90_ms", percentile(lat, 90))
	r.notef("measured %d configs in %d units over %.3f s", len(c.done), len(c.units), c.measured.Seconds())
}

// gate checks every result and that a config run twice — in a later
// pass, or in the seed-chosen re-run sample — gives identical bytes.
func (c campaign) gate(r *report, rng *rand.Rand, sample int) {
	first := map[string]sim.Result{}
	for _, d := range c.done {
		r.attempted++
		ref, seen := first[d.job.Label]
		if !seen {
			first[d.job.Label] = d.res
			r.gate(d.job.Label, d.job.Config, d.res, nil, true)
			continue
		}
		r.gate(d.job.Label+" (repeat)", d.job.Config, d.res, &ref, true)
	}
	for _, i := range pick(rng, len(c.done), sample) {
		d := c.done[i]
		res, _, err := runInProcess(d.job.Config)
		r.attempted++
		if err != nil {
			r.failed++
			r.violatef("%s: re-run failed: %v", d.job.Label, err)
			continue
		}
		r.gate(d.job.Label+" (re-run)", d.job.Config, res, &d.res, true)
	}
}

// runInProcess builds and runs one config through the simulator's
// public API, returning the wall time it took.
func runInProcess(cfg sim.Config) (sim.Result, time.Duration, error) {
	t := time.Now()
	sys, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, 0, err
	}
	res, err := sys.Run()
	return res, time.Since(t), err
}

// pick returns k distinct indices below n (all of them when k >= n),
// chosen from rng.
func pick(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	if k < n {
		perm = perm[:k]
	}
	return perm
}

// simSetup times the simulator workloads' set-up — config and mix
// generation plus the first sim.New — simSetupReps times.
func simSetup(r *report, gen func() [][]sweep.Job) [][]sweep.Job {
	var times []float64
	var units [][]sweep.Job
	for i := 0; i < simSetupReps; i++ {
		runtime.GC() // start every repetition from a settled heap
		t := time.Now()
		units = gen()
		if _, err := sim.New(units[0][0].Config); err != nil {
			r.failed++
			r.violatef("set-up: sim.New: %v", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	r.set("setup_s", median(times))
	return units
}

// runSimWorkload is fig7-single and fig7-eight: units of configs run
// in process through sweep.Run. rerun configs are re-run to check
// determinism; a traced run re-runs stepper of them on the stepper.
func runSimWorkload(ctx context.Context, b *bench, gen func() [][]sweep.Job, rerun, stepper int) error {
	r := b.rep
	units := simSetup(r, gen)
	d := b.seconds
	if b.traced {
		d /= 2 // the other half re-runs the same configs traced
	}
	rss := startRSS()
	c, err := runCampaign(ctx, units, d)
	r.set("max_rss_mb", rss.stopMB())
	if err != nil {
		return err
	}
	c.gate(r, b.rng, rerun)
	if !b.traced {
		c.setE2E(r)
		return nil
	}
	busy := 0.0
	for _, d := range c.done {
		busy += d.elapsed.Seconds()
	}
	total := 0.0
	for _, u := range c.units {
		total += u.wall
	}
	r.set("sweep.worker_busy_frac", ratio(busy, simWorkers*total))

	var distinct []ran
	seen := map[string]bool{}
	for _, d := range c.done {
		if !seen[d.job.Label] {
			seen[d.job.Label] = true
			distinct = append(distinct, d)
		}
	}
	tracedSims(r, b.tr, distinct)
	engineMismatch(r, b.rng, distinct, stepper)
	return nil
}

// simLayer sums the simulator-side per-layer measurements over the
// traced configs.
type simLayer struct {
	configs     int
	newNs       float64
	tracedNs    float64
	untracedNs  float64
	execCycles  int64
	totalCycles int64
	phaseNs     [prof.NumPhases]float64
	phaseCalls  [prof.NumPhases]uint64
	nestedEnqNs float64 // enqueue time inside LLC lookups
	llcHits     uint64
	llcAccesses uint64
	mshrRetries uint64
	readLatSum  uint64
	reads       uint64
	rowHits     uint64
	rowOutcomes uint64
	acts        uint64
	fastActs    uint64
	ipcs        []float64
	ccConfigs   int
	mechNs      [numMechOps]float64
	mechCalls   [numMechOps]uint64
	ccLookups   uint64
	ccHits      uint64
	ccWindowNs  float64
	ccAccountNs float64
}

// tracedSims re-runs configs with the phase profiler on, ChargeCache
// through the counting shim, and sim.New and Run timed separately,
// checks each traced result equals its untraced run, and records the
// simulator-side per-layer metrics.
func tracedSims(r *report, tr *tracer, runs []ran) {
	var s simLayer
	for _, u := range runs {
		cfg := u.job.Config
		cfg.Analysis = &analysis.Config{Enabled: true, PhaseProfile: true}
		var mt *mechTrace
		if cfg.Mechanism == sim.ChargeCache {
			mt = &mechTrace{}
			cfg = withShim(cfg, mt)
		}
		id, start := tr.begin()
		nid, nstart := tr.begin()
		sys, err := sim.New(cfg)
		tr.end(nid, id, "sim.New", nstart, "")
		newDur := time.Since(nstart)
		r.attempted++
		if err != nil {
			r.failed++
			r.violatef("%s (traced): %v", u.job.Label, err)
			continue
		}
		rid, rstart := tr.begin()
		res, err := sys.Run()
		end := time.Now()
		tr.end(rid, id, "sim.Run", rstart, "")
		tr.end(id, 0, "config", start, u.job.Label)
		if err != nil {
			r.failed++
			r.violatef("%s (traced): %v", u.job.Label, err)
			continue
		}
		r.gate(u.job.Label+" (traced)", cfg, res, &u.res, false)

		s.configs++
		s.newNs += float64(newDur)
		s.tracedNs += float64(end.Sub(nstart))
		s.untracedNs += float64(u.elapsed)
		s.execCycles += sys.ExecutedCycles()
		s.totalCycles += sys.TotalCycles()
		if res.Analysis == nil || res.Analysis.Phases == nil {
			r.violatef("%s (traced): no phase profile", u.job.Label)
			continue
		}
		ph := res.Analysis.Phases
		for p := prof.Phase(0); p < prof.NumPhases; p++ {
			s.phaseNs[p] += ph.EstimatedNs(p)
			s.phaseCalls[p] += ph.Calls[p]
		}
		s.nestedEnqNs += nestedEnqueueNs(res)
		s.llcHits += res.LLC.Hits
		s.llcAccesses += res.LLC.Accesses()
		s.mshrRetries += res.LLC.Retries
		s.readLatSum += res.Controller.ReadLatencySum
		s.reads += res.Controller.ReadsServed
		s.rowHits += res.Controller.RowHits
		s.rowOutcomes += res.Controller.RowHits + res.Controller.RowMisses + res.Controller.RowConflicts
		s.acts += res.Counts.ACT
		s.fastActs += res.Counts.FastACT
		for _, c := range res.PerCore {
			s.ipcs = append(s.ipcs, c.IPC)
		}
		if mt != nil {
			s.ccConfigs++
			s.ccLookups += res.Mechanism.Lookups
			s.ccHits += res.Mechanism.Hits
			account := 0.0
			for op := mechOp(0); op < numMechOps; op++ {
				est := mt.estimatedNs(op)
				s.mechNs[op] += est
				s.mechCalls[op] += mt.calls[op]
				account += est
			}
			// The phases summed here do not nest in one another.
			// Complete already contains the Callback hops it drains.
			// Enqueue is left out: it runs inside LLCLookup (fills,
			// write-allocate writebacks) or inside Complete (writebacks
			// of fill victims), so it is counted there already; only
			// writebacks the LLC's tick retries from its backlog fall
			// outside, and they count as unattributed.
			for _, p := range []prof.Phase{prof.LLCLookup, prof.Select, prof.Issue, prof.Complete} {
				account += ph.EstimatedNs(p)
			}
			s.ccWindowNs += float64(end.Sub(mt.measuredFrom))
			s.ccAccountNs += account
		}
	}
	s.set(r)
}

func (s simLayer) set(r *report) {
	n := float64(s.configs)
	phaseNs := func(p prof.Phase) float64 { return ratio(s.phaseNs[p], float64(s.phaseCalls[p])) }
	perConfig := func(calls uint64) float64 { return ratio(float64(calls), n) }
	r.set("sim.executed_cycle_frac", ratio(float64(s.execCycles), float64(s.totalCycles)))
	r.set("sim.new_ms", ratio(s.newNs/1e6, n))
	r.set("sim.trace_overhead_frac", ratio(s.tracedNs, s.untracedNs)-1)
	r.set("cache.lookup_ns", ratio(s.phaseNs[prof.LLCLookup]-s.nestedEnqNs, float64(s.phaseCalls[prof.LLCLookup])))
	r.set("cache.lookup_calls", perConfig(s.phaseCalls[prof.LLCLookup]))
	r.set("cache.hit_ratio", ratio(float64(s.llcHits), float64(s.llcAccesses)))
	r.set("cache.mshr_retries", perConfig(s.mshrRetries))
	r.set("memctrl.enqueue_ns", phaseNs(prof.Enqueue))
	r.set("memctrl.select_ns", phaseNs(prof.Select))
	r.set("memctrl.select_calls", perConfig(s.phaseCalls[prof.Select]))
	r.set("memctrl.complete_ns", ratio(s.phaseNs[prof.Complete]-s.phaseNs[prof.Callback], float64(s.phaseCalls[prof.Complete])))
	r.set("memctrl.read_latency_cyc", ratio(float64(s.readLatSum), float64(s.reads)))
	r.set("memctrl.row_hit_ratio", ratio(float64(s.rowHits), float64(s.rowOutcomes)))
	r.set("dram.issue_ns", phaseNs(prof.Issue))
	r.set("dram.issue_calls", perConfig(s.phaseCalls[prof.Issue]))
	r.set("dram.fast_act_ratio", ratio(float64(s.fastActs), float64(s.acts)))
	r.set("cpu.callback_ns", phaseNs(prof.Callback))
	r.set("cpu.callback_calls", perConfig(s.phaseCalls[prof.Callback]))
	r.set("cpu.ipc_gmean", gmean(s.ipcs))

	cc := float64(s.ccConfigs)
	mechNs := func(op mechOp) float64 { return ratio(s.mechNs[op], float64(s.mechCalls[op])) }
	r.set("core.activate_ns", mechNs(opActivate))
	r.set("core.activate_calls", ratio(float64(s.mechCalls[opActivate]), cc))
	r.set("core.precharge_ns", mechNs(opPrecharge))
	r.set("core.tick_ns", mechNs(opTick))
	r.set("core.tick_calls", ratio(float64(s.mechCalls[opTick]), cc))
	r.set("core.hcrac_hit_ratio", ratio(float64(s.ccHits), float64(s.ccLookups)))
	if s.ccWindowNs > 0 {
		r.set("sim.unattributed_frac", 1-s.ccAccountNs/s.ccWindowNs)
	}
	r.notef("traced %d configs (%d through the ChargeCache shim); sim.unattributed_frac covers the shim configs' measured windows", s.configs, s.ccConfigs)
}

// nestedEnqueueNs estimates the controller enqueue time a config spent
// inside LLC lookups. A read miss enqueues its fill from inside the
// lookup, and so does a write allocation that evicts a dirty victim;
// the other enqueues are writebacks of victims evicted by fills, which
// run inside the completion drain, and backlogged writebacks. The
// profiler does not split enqueue calls by caller, so the nested ones
// are counted from the LLC's statistics: every miss, plus the write
// allocations' share of the writebacks.
func nestedEnqueueNs(res sim.Result) float64 {
	ph := res.Analysis.Phases
	calls := float64(ph.Calls[prof.Enqueue])
	if calls == 0 {
		return 0
	}
	llc := res.LLC
	nested := float64(llc.Misses)
	if installs := llc.Misses + llc.WriteFills; installs > 0 {
		nested += float64(llc.Writebacks) * float64(llc.WriteFills) / float64(installs)
	}
	return ph.EstimatedNs(prof.Enqueue) * min(nested, calls) / calls
}

// engineMismatch re-runs a seed-chosen sample under the reference
// stepper and counts results that differ from the default event
// engine's. The count is reported, not gated: the engines are known to
// diverge on long runs (see README.md).
func engineMismatch(r *report, rng *rand.Rand, runs []ran, sample int) {
	idx := pick(rng, len(runs), sample)
	mismatches := 0
	for _, i := range idx {
		u := runs[i]
		cfg := u.job.Config
		cfg.Stepper = true
		res, _, err := runInProcess(cfg)
		if err != nil {
			r.notef("stepper run of %s failed: %v", u.job.Label, err)
			mismatches++
			continue
		}
		if ok, diff := sameResult(res, u.res, true); !ok {
			mismatches++
			r.notef("engine mismatch: %s (seed %d): %s", u.job.Label, cfg.Seed, diff)
		}
	}
	r.set("sim.engine_mismatch_configs", float64(mismatches))
	r.set("sim.engine_mismatch_sample", float64(len(idx)))
	r.notef("sim.engine_mismatch_configs: %d of %d sampled configs differ between the event engine and the stepper", mismatches, len(idx))
}
