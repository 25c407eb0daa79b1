package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

const (
	// svcCallers closed-loop callers drive svc-latency: each waits for
	// its job's result before submitting the next.
	svcCallers = 2
	// fleetDaemons 1-worker daemons serve fleet-campaign.
	fleetDaemons = 2
	// svcHitSet configs are simulated during set-up so that repeats of
	// them are result-cache hits.
	svcHitSet = 6
	// svcSetupReps and fleetSetupReps are how many times a service run
	// sets up; setup_s is the median. svc-latency's set-up waits out one
	// 250 ms status poll, which makes it steady; fleet-campaign's takes
	// about a millisecond and needs many repetitions to be.
	svcSetupReps   = 5
	fleetSetupReps = 101
	// Budgets of a service job: small enough that the service layers,
	// not the simulator, set its latency.
	svcWarmup   = 100_000
	svcRun      = 100_000
	fleetWarmup = 300_000
	fleetRun    = 150_000
)

// Job kinds of the svc-latency stream.
const (
	kindHit   = iota // repeat of a hit-set config, submitted to P
	kindFresh        // new config simulated on P
	kindFwd          // new config submitted to F, forwarded to P
)

var kindNames = [...]string{"hit", "fresh", "fwd"}

// svcBlock is one caller round of the job stream, shuffled per round:
// the shares are fixed so every seed loads each path the same. No
// recorded traffic fixes them, so the three paths get equal shares, as
// the ROADMAP lists them side by side. Sorted by latency, the jobs then
// fall into three bands of a third each (hits, fresh, forwarded), and
// config_p50 sits mid-band among fresh jobs and config_p90 well inside
// the forwarded band, away from either band boundary.
var svcBlock = []int{kindHit, kindHit, kindFresh, kindFresh, kindFwd, kindFwd}

// daemon is one ccsimd manager serving HTTP on a loopback listener.
type daemon struct {
	m     *server.Manager
	srv   *http.Server
	url   string
	cache *sweep.Cache
	done  chan error
}

func startDaemon(cfg server.ManagerConfig) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := server.NewManager(cfg)
	d := &daemon{
		m:     m,
		srv:   &http.Server{Handler: server.New(m)},
		url:   "http://" + ln.Addr().String(),
		cache: cfg.Cache,
		done:  make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the manager, shuts the listener down and waits for the
// serving goroutine to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.m.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: drain %s: %v\n", d.url, err)
	}
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: shutdown %s: %v\n", d.url, err)
	}
	<-d.done
}

// waitReady polls /readyz until the daemon answers 200.
func waitReady(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cachedDaemon starts a daemon with its own result cache in a fresh
// scratch directory.
func cachedDaemon(dir string, cfg server.ManagerConfig) (*daemon, error) {
	cache, err := sweep.OpenCache(filepath.Join(dir, "results.json"))
	if err != nil {
		return nil, err
	}
	cfg.Cache = cache
	return startDaemon(cfg)
}

// smallConfig is one seed-chosen single-core config.
func smallConfig(rng *rand.Rand, simSeed, warmup, run uint64) sim.Config {
	names := workload.Names()
	kinds := sim.MechanismKinds()
	cfg := sim.DefaultConfig(names[rng.IntN(len(names))])
	cfg.Mechanism = kinds[rng.IntN(len(kinds))]
	cfg.WarmupInstructions = warmup
	cfg.RunInstructions = run
	cfg.Seed = simSeed
	return cfg
}

// svcJob is one job of the svc-latency stream and what came back.
type svcJob struct {
	kind    int
	caller  int
	block   int
	cfg     sim.Config
	latency time.Duration
	st      server.JobStatus
	err     error
}

func (j svcJob) label() string {
	return fmt.Sprintf("caller%d/%s/%s/seed%d", j.caller, kindNames[j.kind], j.cfg.Workloads[0], j.cfg.Seed)
}

// svcFleet is svc-latency's set-up: peer P with one worker and a
// result cache, and front F with no worker forwarding to P.
type svcFleet struct {
	p, f   *daemon
	hits   []sim.Config
	hitRes []sim.Result
}

func (s *svcFleet) stop() {
	if s == nil {
		return
	}
	if s.f != nil {
		s.f.stop()
	}
	if s.p != nil {
		s.p.stop()
	}
}

// setupSvc starts P and F, waits for /readyz and pre-warms the hit
// set: the set-up a user of the service pays before the first request.
func setupSvc(ctx context.Context, b *bench) (*svcFleet, error) {
	dir, err := os.MkdirTemp(b.tmp, "svc-")
	if err != nil {
		return nil, err
	}
	s := &svcFleet{}
	if s.p, err = cachedDaemon(dir, server.ManagerConfig{Workers: 1}); err != nil {
		return s, err
	}
	s.f, err = startDaemon(server.ManagerConfig{
		Workers: server.NoLocalWorkers,
		Remotes: []server.Remote{client.NewPeer(s.p.url, 1)},
	})
	if err != nil {
		return s, err
	}
	for _, d := range []*daemon{s.p, s.f} {
		if err := waitReady(ctx, d.url); err != nil {
			return s, err
		}
	}
	rng := rand.New(rand.NewPCG(b.seed, 1))
	var specs []server.JobSpec
	for i := 0; i < svcHitSet; i++ {
		cfg := smallConfig(rng, b.seed<<32|1<<28|uint64(i), svcWarmup, svcRun)
		s.hits = append(s.hits, cfg)
		specs = append(specs, server.JobSpec{Label: fmt.Sprintf("hit%d", i), Config: cfg})
	}
	cli := client.New(s.p.url)
	sts, err := cli.Submit(ctx, specs)
	if err != nil {
		return s, fmt.Errorf("pre-warm submit: %w", err)
	}
	for _, sub := range sts {
		st, err := cli.Wait(ctx, sub.ID)
		if err != nil {
			return s, fmt.Errorf("pre-warm: %w", err)
		}
		if st.State != server.StateDone || st.Result == nil {
			return s, fmt.Errorf("pre-warm job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		s.hitRes = append(s.hitRes, *st.Result)
	}
	return s, nil
}

// timedSetups runs setup reps times, records the median as setup_s,
// and keeps the last instance running.
func timedSetups[T interface{ stop() }](ctx context.Context, b *bench, reps int, setup func(context.Context, *bench) (T, error)) (T, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC() // start every repetition from a settled heap
		t := time.Now()
		s, err := setup(ctx, b)
		if err != nil {
			s.stop()
			var none T
			return none, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		if i == reps-1 {
			b.rep.set("setup_s", median(times))
			return s, nil
		}
		s.stop()
	}
}

// runCallers drives the closed-loop callers for d. Job indices start
// at first so a second phase never repeats the first phase's configs.
// A non-nil transport is installed on every caller's clients, and a
// non-nil tracer records a span per job.
func runCallers(ctx context.Context, b *bench, s *svcFleet, first int, d time.Duration, rt http.RoundTripper, tr *tracer) ([]svcJob, time.Duration) {
	var (
		mu   sync.Mutex
		jobs []svcJob
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < svcCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(b.seed, uint64(2+c)<<32|uint64(first)))
			cliP, cliF := client.New(s.p.url), client.New(s.f.url)
			if rt != nil {
				cliP.SetTransport(rt)
				cliF.SetTransport(rt)
			}
			block := make([]int, len(svcBlock))
			for j := first; time.Since(start) < d; j++ {
				if (j-first)%len(block) == 0 {
					copy(block, svcBlock)
					rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
				}
				job := svcJob{kind: block[(j-first)%len(block)], caller: c, block: (j - first) / len(block)}
				cli := cliP
				switch job.kind {
				case kindHit:
					job.cfg = s.hits[rng.IntN(len(s.hits))]
				case kindFwd:
					cli = cliF
					fallthrough
				default:
					job.cfg = smallConfig(rng, b.seed<<32|uint64(c+1)<<24|uint64(j), svcWarmup, svcRun)
				}
				id, t0 := tr.begin()
				t := time.Now()
				job.st, job.err = cli.RunJob(withSpan(ctx, id), server.JobSpec{Label: job.label(), Config: job.cfg})
				job.latency = time.Since(t)
				tr.end(id, 0, "job "+kindNames[job.kind], t0, job.label())
				mu.Lock()
				jobs = append(jobs, job)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// references runs every distinct config in process, untraced and timed,
// outside any measured window: the results the service must reproduce.
func references(r *report, cfgs []sim.Config, labels []string) map[string]ran {
	refs := map[string]ran{}
	for i, cfg := range cfgs {
		key, err := sweep.Key(cfg)
		if err != nil {
			r.violatef("%s: %v", labels[i], err)
			continue
		}
		if _, ok := refs[key]; ok {
			continue
		}
		res, elapsed, err := runInProcess(cfg)
		if err != nil {
			r.failed++
			r.violatef("%s: reference run: %v", labels[i], err)
			continue
		}
		refs[key] = ran{job: sweep.Job{Label: labels[i], Config: cfg}, res: res, elapsed: elapsed}
	}
	return refs
}

func refFor(refs map[string]ran, cfg sim.Config) *sim.Result {
	key, err := sweep.Key(cfg)
	if err != nil {
		return nil
	}
	if u, ok := refs[key]; ok {
		return &u.res
	}
	return nil
}

// gateJobs checks every svc-latency job: it succeeded, hits were served
// from the cache and equal the pre-warmed fresh result, and every
// result equals the in-process reference run of its config.
func gateJobs(r *report, s *svcFleet, jobs []svcJob, refs map[string]ran) {
	for i, cfg := range s.hits {
		r.attempted++
		r.gate(fmt.Sprintf("pre-warm %d", i), cfg, s.hitRes[i], refFor(refs, cfg), true)
	}
	for _, j := range jobs {
		r.attempted++
		label := j.label()
		if j.err != nil || j.st.Result == nil {
			r.failed++
			r.violatef("%s: job failed: %v %s", label, j.err, j.st.Error)
			continue
		}
		if j.kind == kindHit {
			if !j.st.Cached {
				r.violatef("%s: repeat of a pre-warmed config was not a cache hit", label)
			}
			for i, cfg := range s.hits {
				if cfg.Seed == j.cfg.Seed {
					if ok, diff := sameResult(*j.st.Result, s.hitRes[i], true); !ok {
						r.violatef("%s: cache hit differs from the fresh result: %s", label, diff)
					}
				}
			}
		}
		ref := refFor(refs, j.cfg)
		if ref == nil {
			r.violatef("%s: no reference result", label)
			continue
		}
		r.gate(label, j.cfg, *j.st.Result, ref, true)
	}
}

func jobConfigs(s *svcFleet, jobs []svcJob) ([]sim.Config, []string) {
	cfgs := append([]sim.Config(nil), s.hits...)
	var labels []string
	for i := range s.hits {
		labels = append(labels, fmt.Sprintf("pre-warm %d", i))
	}
	for _, j := range jobs {
		cfgs = append(cfgs, j.cfg)
		labels = append(labels, j.label())
	}
	return cfgs, labels
}

// svcE2E records the end-to-end metrics of a svc-latency phase. A
// unit of work is one caller's complete round of len(svcBlock) jobs;
// the callers run theirs side by side.
func svcE2E(r *report, jobs []svcJob, measured time.Duration) {
	var lat []float64
	rounds := map[[2]int]*unitStat{}
	for _, j := range jobs {
		lat = append(lat, ms(j.latency))
		k := [2]int{j.caller, j.block}
		u := rounds[k]
		if u == nil {
			u = &unitStat{}
			rounds[k] = u
		}
		// Each caller runs its jobs back to back, so a round's wall
		// time is the sum of their latencies.
		u.configs++
		u.wall += j.latency.Seconds()
		if j.kind != kindHit {
			u.instr += instructions(j.cfg)
		}
	}
	var units []unitStat
	for _, u := range rounds {
		if u.configs == len(svcBlock) {
			units = append(units, *u)
		}
	}
	setRates(r, units, svcCallers)
	r.setPct("config_p50_ms", percentile(lat, 50))
	r.setPct("config_p90_ms", percentile(lat, 90))
	r.notef("measured %d jobs in %d complete rounds over %.3f s", len(jobs), len(units), measured.Seconds())
}

// latencies returns the job latencies of one kind in milliseconds.
func latencies(jobs []svcJob, kind int) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.kind == kind {
			out = append(out, ms(j.latency))
		}
	}
	return out
}

// runSvcLatency is the svc-latency workload: two closed-loop callers
// mixing cache hits, fresh jobs on P and jobs forwarded F→P.
func runSvcLatency(ctx context.Context, b *bench) error {
	r := b.rep
	s, err := timedSetups(ctx, b, svcSetupReps, setupSvc)
	if err != nil {
		return err
	}
	defer s.stop()
	d := b.seconds
	if b.traced {
		d /= 2
	}
	rss := startRSS()
	jobs, measured := runCallers(ctx, b, s, 0, d, nil, nil)
	r.set("max_rss_mb", rss.stopMB())
	if !b.traced {
		cfgs, labels := jobConfigs(s, jobs)
		gateJobs(r, s, jobs, references(r, cfgs, labels))
		svcE2E(r, jobs, measured)
		return nil
	}
	// Latency per path comes from the untraced half; the traced half
	// decomposes it layer by layer.
	r.setPct("client.hit_p50_ms", percentile(latencies(jobs, kindHit), 50))
	r.setPct("client.hit_p99_ms", percentile(latencies(jobs, kindHit), 99))
	r.setPct("client.fresh_p50_ms", percentile(latencies(jobs, kindFresh), 50))
	r.setPct("client.fresh_p90_ms", percentile(latencies(jobs, kindFresh), 90))
	r.setPct("client.fwd_p50_ms", percentile(latencies(jobs, kindFwd), 50))
	r.setPct("client.fwd_p90_ms", percentile(latencies(jobs, kindFwd), 90))

	ct := &countingTransport{base: http.DefaultTransport, tr: b.tr}
	traced, _ := runCallers(ctx, b, s, 1<<20, d, ct, b.tr)
	r.set("client.http_calls_per_job", ratio(float64(ct.calls.Load()), float64(len(traced))))
	r.set("client.http_rtt_ms", ct.meanMs())
	var queue, exec, lat []float64
	for _, j := range traced {
		if j.kind != kindFresh || j.err != nil || j.st.StartedAt == nil || j.st.FinishedAt == nil {
			continue
		}
		queue = append(queue, ms(j.st.StartedAt.Sub(j.st.SubmittedAt)))
		exec = append(exec, ms(j.st.FinishedAt.Sub(*j.st.StartedAt)))
		lat = append(lat, ms(j.latency))
	}
	q, e, l := mean(queue), mean(exec), mean(lat)
	r.set("server.queue_wait_ms", q)
	r.set("server.exec_ms", e)
	r.set("client.fresh_mean_ms", l)
	r.set("client.poll_wait_ms", l-q-e)
	r.notef("fresh jobs (traced, n=%d): queue %.3f + exec %.3f + client poll wait %.3f = observed %.3f ms", len(lat), q, e, l-q-e, l)
	r.set("server.cache_hit_ratio", s.p.m.Metrics().CacheHitRate)
	r.set("server.remote_sims", float64(s.f.m.Metrics().RemoteSimulations))
	r.set("sweep.cache_get_us", cacheGetUs(s.p.cache, s.hits))

	all := append(jobs, traced...)
	cfgs, labels := jobConfigs(s, all)
	refs := references(r, cfgs, labels)
	gateJobs(r, s, all, refs)
	var fresh []ran
	for _, j := range traced {
		if j.kind != kindHit {
			if key, err := sweep.Key(j.cfg); err == nil {
				if u, ok := refs[key]; ok {
					fresh = append(fresh, u)
				}
			}
		}
	}
	tracedSims(r, b.tr, fresh)
	engineMismatch(r, b.rng, fresh, 8)
	return nil
}

// cacheGetUs times sweep.Cache.Get — content-address the config, then
// look it up — over the given configs, in microseconds per call.
func cacheGetUs(c *sweep.Cache, cfgs []sim.Config) float64 {
	if c == nil || len(cfgs) == 0 {
		return 0
	}
	rounds := 1 + 1000/len(cfgs)
	t := time.Now()
	for i := 0; i < rounds; i++ {
		for _, cfg := range cfgs {
			c.Get(cfg)
		}
	}
	return float64(time.Since(t)) / 1e3 / float64(rounds*len(cfgs))
}

// fleet is fleet-campaign's set-up: fleetDaemons cold 1-worker daemons.
type fleet struct{ ds []*daemon }

func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, d := range f.ds {
		d.stop()
	}
}

func (f *fleet) urls() []string {
	var out []string
	for _, d := range f.ds {
		out = append(out, d.url)
	}
	return out
}

func setupFleet(ctx context.Context, b *bench) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < fleetDaemons; i++ {
		dir, err := os.MkdirTemp(b.tmp, "fleet-")
		if err != nil {
			return f, err
		}
		d, err := cachedDaemon(dir, server.ManagerConfig{Workers: 1})
		if err != nil {
			return f, err
		}
		f.ds = append(f.ds, d)
		if err := waitReady(ctx, d.url); err != nil {
			return f, err
		}
	}
	fleetJobs(b.seed, 0)
	return f, nil
}

// fleetJobs is pass i of fleet-campaign: every workload under Baseline
// and ChargeCache at Quick-scale budgets, with a simulation seed unique
// to the pass so every pass finds the daemons' caches cold.
func fleetJobs(seed uint64, pass int) []sweep.Job {
	var jobs []sweep.Job
	for _, w := range workload.Names() {
		for _, m := range []sim.MechanismKind{sim.Baseline, sim.ChargeCache} {
			cfg := sim.DefaultConfig(w)
			cfg.Mechanism = m
			cfg.WarmupInstructions = fleetWarmup
			cfg.RunInstructions = fleetRun
			cfg.Seed = seed<<32 | uint64(pass+1)
			jobs = append(jobs, sweep.Job{Label: fmt.Sprintf("pass%d/%s/%s", pass, w, m), Config: cfg})
		}
	}
	return jobs
}

// fleetPasses runs campaign passes through dispatch.Run until d has
// elapsed, numbering passes from first.
func fleetPasses(ctx context.Context, b *bench, f *fleet, first int, d time.Duration, tr *tracer) (campaign, dispatch.Stats, error) {
	var c campaign
	var total dispatch.Stats
	start := time.Now()
	for i := first; i == first || time.Since(start) < d; i++ {
		jobs := fleetJobs(b.seed, i)
		elapsed := make([]time.Duration, len(jobs))
		var st dispatch.Stats
		id, t0 := tr.begin()
		t := time.Now()
		results, err := dispatch.Run(withSpan(ctx, id), jobs, dispatch.Options{
			Endpoints: f.urls(),
			Stats:     &st,
			Progress:  func(ev sweep.Event) { elapsed[ev.Index] = ev.Elapsed },
		})
		wall := time.Since(t)
		tr.end(id, 0, "dispatch.Run", t0, fmt.Sprintf("pass %d", i))
		if err != nil {
			return c, total, err
		}
		total.Slots = st.Slots
		total.Retries += st.Retries
		total.CacheHits += st.CacheHits
		c.add(jobs, results, elapsed, wall)
	}
	c.measured = time.Since(start)
	return c, total, nil
}

// gateFleet checks every fleet result against an in-process run of its
// config and returns those reference runs.
func gateFleet(r *report, c campaign) map[string]ran {
	var cfgs []sim.Config
	var labels []string
	for _, d := range c.done {
		cfgs = append(cfgs, d.job.Config)
		labels = append(labels, d.job.Label)
	}
	refs := references(r, cfgs, labels)
	for _, d := range c.done {
		r.attempted++
		ref := refFor(refs, d.job.Config)
		if ref == nil {
			r.violatef("%s: no reference result", d.job.Label)
			continue
		}
		r.gate(d.job.Label, d.job.Config, d.res, ref, true)
	}
	return refs
}

// runFleetCampaign is the fleet-campaign workload: cold-cache campaign
// passes dispatched over two 1-worker loopback daemons.
func runFleetCampaign(ctx context.Context, b *bench) error {
	r := b.rep
	f, err := timedSetups(ctx, b, fleetSetupReps, setupFleet)
	if err != nil {
		return err
	}
	defer f.stop()
	d := b.seconds
	if b.traced {
		d /= 2
	}
	rss := startRSS()
	c, _, err := fleetPasses(ctx, b, f, 0, d, nil)
	r.set("max_rss_mb", rss.stopMB())
	if err != nil {
		return err
	}
	if !b.traced {
		gateFleet(r, c)
		c.setE2E(r)
		return nil
	}
	var fresh []float64
	for _, u := range c.done {
		fresh = append(fresh, ms(u.elapsed))
	}
	r.setPct("client.fresh_p50_ms", percentile(fresh, 50))
	r.setPct("client.fresh_p90_ms", percentile(fresh, 90))

	// The dispatcher builds its own clients on the default transport.
	ct := &countingTransport{base: http.DefaultTransport, tr: b.tr}
	http.DefaultTransport = ct
	tc, st, err := fleetPasses(ctx, b, f, len(c.units), d, b.tr)
	http.DefaultTransport = ct.base
	if err != nil {
		return err
	}
	r.set("client.http_calls_per_job", ratio(float64(ct.calls.Load()), float64(len(tc.done))))
	r.set("client.http_rtt_ms", ct.meanMs())
	busy, wall := 0.0, 0.0
	for _, u := range tc.done {
		busy += u.elapsed.Seconds()
	}
	for _, u := range tc.units {
		wall += u.wall
	}
	r.set("dispatch.slot_busy_frac", ratio(busy, float64(st.Slots)*wall))
	r.set("dispatch.retries", float64(st.Retries))
	r.set("dispatch.cache_hits", float64(st.CacheHits))

	// Server-side timing of the traced passes, matched to the
	// dispatcher's attempt latency by content address.
	byKey := map[string]server.JobStatus{}
	hitRate := 0.0
	for _, dm := range f.ds {
		for _, js := range dm.m.Jobs() {
			byKey[js.Key] = js
		}
		hitRate += dm.m.Metrics().CacheHitRate / float64(len(f.ds))
	}
	var queue, exec, lat []float64
	for _, u := range tc.done {
		key, err := sweep.Key(u.job.Config)
		js, ok := byKey[key]
		if err != nil || !ok || js.StartedAt == nil || js.FinishedAt == nil {
			continue
		}
		queue = append(queue, ms(js.StartedAt.Sub(js.SubmittedAt)))
		exec = append(exec, ms(js.FinishedAt.Sub(*js.StartedAt)))
		lat = append(lat, ms(u.elapsed))
	}
	q, e, l := mean(queue), mean(exec), mean(lat)
	r.set("server.queue_wait_ms", q)
	r.set("server.exec_ms", e)
	r.set("client.fresh_mean_ms", l)
	r.set("client.poll_wait_ms", l-q-e)
	r.set("server.cache_hit_ratio", hitRate)
	r.set("sweep.cache_get_us", cacheGetUs(f.ds[0].cache, configsOf(tc.done)))
	r.notef("traced configs (server timing matched for %d of %d): queue %.3f + exec %.3f + client poll wait %.3f = observed %.3f ms", len(lat), len(tc.done), q, e, l-q-e, l)

	c.done = append(c.done, tc.done...)
	refs := gateFleet(r, c)
	var traced []ran
	for _, u := range tc.done {
		if key, err := sweep.Key(u.job.Config); err == nil {
			if ref, ok := refs[key]; ok {
				traced = append(traced, ref)
			}
		}
	}
	tracedSims(r, b.tr, traced)
	engineMismatch(r, b.rng, traced, 8)
	return nil
}

func configsOf(runs []ran) []sim.Config {
	var out []sim.Config
	for _, u := range runs {
		out = append(out, u.job.Config)
	}
	return out
}
