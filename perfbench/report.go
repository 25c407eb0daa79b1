package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric BENCHMARK.json declares. The lists below and
// that file must name the same metrics with the same units; a test
// compares them.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the user-visible metrics every untraced run prints, on
// every workload. Each is defined for all four workloads (see README.md
// for what a "config" and a "pass" are on each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"configs_per_s", "1/s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"config_p50_ms", "ms"},
	{"config_p90_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A layer a workload
// never reaches reads 0 there (the fig7 workloads start no daemon, the
// service workloads run no ChargeCache shim on the wire).
var perLayer = []metricDef{
	{"sim.executed_cycle_frac", "frac"},
	{"sim.new_ms", "ms"},
	{"sim.unattributed_frac", "frac"},
	{"sim.trace_overhead_frac", "frac"},
	{"sim.engine_mismatch_configs", "count"},
	{"sim.engine_mismatch_sample", "count"},
	{"cache.lookup_ns", "ns"},
	{"cache.lookup_calls", "count/config"},
	{"cache.hit_ratio", "frac"},
	{"cache.mshr_retries", "count/config"},
	{"memctrl.enqueue_ns", "ns"},
	{"memctrl.select_ns", "ns"},
	{"memctrl.select_calls", "count/config"},
	{"memctrl.complete_ns", "ns"},
	{"memctrl.read_latency_cyc", "cyc"},
	{"memctrl.row_hit_ratio", "frac"},
	{"dram.issue_ns", "ns"},
	{"dram.issue_calls", "count/config"},
	{"dram.fast_act_ratio", "frac"},
	{"core.activate_ns", "ns"},
	{"core.activate_calls", "count/config"},
	{"core.precharge_ns", "ns"},
	{"core.tick_ns", "ns"},
	{"core.tick_calls", "count/config"},
	{"core.hcrac_hit_ratio", "frac"},
	{"cpu.callback_ns", "ns"},
	{"cpu.callback_calls", "count/config"},
	{"cpu.ipc_gmean", "IPC"},
	{"sweep.worker_busy_frac", "frac"},
	{"sweep.cache_get_us", "us"},
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.cache_hit_ratio", "frac"},
	{"server.remote_sims", "count"},
	{"client.poll_wait_ms", "ms"},
	{"client.http_calls_per_job", "count"},
	{"client.http_rtt_ms", "ms"},
	{"client.fresh_mean_ms", "ms"},
	{"client.hit_p50_ms", "ms"},
	{"client.hit_p99_ms", "ms"},
	{"client.fresh_p50_ms", "ms"},
	{"client.fresh_p90_ms", "ms"},
	{"client.fwd_p50_ms", "ms"},
	{"client.fwd_p90_ms", "ms"},
	{"dispatch.slot_busy_frac", "frac"},
	{"dispatch.retries", "count"},
	{"dispatch.cache_hits", "count"},
}

// report accumulates one run's outcome: operations attempted and
// failed, gate violations, metric values, and human-readable notes
// (percentile sample counts, identities) printed before the result.
type report struct {
	attempted  int
	failed     int
	violations []string
	values     map[string]float64
	notes      []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// setPct records a percentile metric and notes which percentile and
// how many samples back it.
func (r *report) setPct(name string, p pct) {
	r.values[name] = p.Value
	r.notef("%s: %s", name, p)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violatef records a failed output check; any makes the run incorrect.
func (r *report) violatef(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the notes, then the result object as the last line.
// End-to-end metrics must all have been measured; per-layer metrics a
// workload does not reach default to 0.
func (r *report) write(w io.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			r.violatef("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		r.violatef("no operation was attempted")
		out.Attempted = 1
		out.Failed++
	}
	out.Correct = len(r.violations) == 0 && r.failed == 0
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", v)
	}
	b, _ := json.Marshal(out) // plain maps, floats and ints: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// hostRecord describes the machine a run measured on; every output
// carries it so figures are never compared across hosts by accident.
type hostRecord struct {
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	CPUModel       string `json:"cpu_model"`
	Workers        int    `json:"workers"`
	Callers        int    `json:"callers"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func host(callers int) hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Workers:    simWorkers,
		Callers:    callers,
	}
	h.Oversubscribed = simWorkers > h.NumCPU || callers > h.NumCPU
	return h
}

// cpuModel reads the first "model name" from /proc/cpuinfo; "unknown"
// where that file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssSampler records the process's peak resident set while a measured
// window runs, sampling /proc/self/statm.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64 // bytes
}

// startRSS returns set-up garbage to the OS, so the peak reflects the
// measured window, and starts sampling.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentBytes()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.peak = max(s.peak, residentBytes())
				return
			case <-tick.C:
				s.peak = max(s.peak, residentBytes())
			}
		}
	}()
	return s
}

// stopMB ends sampling and returns the peak in MiB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// residentBytes is the current resident set; 0 where /proc/self/statm
// cannot be read.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
