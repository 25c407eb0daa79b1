// Command perfbench is the repository's benchmark. It runs one named
// workload, generated from a seed, against the simulator and the
// ccsimd service layers through their public APIs; checks every
// output; and prints the metrics BENCHMARK.json declares as one JSON
// object on the last line of standard output.
//
//	go run . --workload fig7-single --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that measures the per-layer metrics with tracing on and writes
// its spans under .bench_build/perfbench-out/. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sweep"
)

// watchdog bounds a run: the benchmark must end within 180 s, so a
// stuck run exits with an error well before that instead of hanging.
const watchdog = 170 * time.Second

// simWorkers is how many in-process simulation workers the fig7
// workloads run: one, the setting that measures steadiest on a 2-CPU
// host (see README.md).
const simWorkers = 1

// outDir holds span files and daemon scratch state, relative to the
// directory the benchmark runs in.
const outDir = ".bench_build/perfbench-out"

// bench is one run's settings and shared state.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	rng     *rand.Rand
	rep     *report
	tr      *tracer // nil unless traced
	tmp     string  // scratch directory for daemon caches
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *bench) error{
	"fig7-single": func(ctx context.Context, b *bench) error {
		return runSimWorkload(ctx, b, func() [][]sweep.Job { return [][]sweep.Job{fig7SingleJobs(b.seed)} }, 8, 16)
	},
	"fig7-eight": func(ctx context.Context, b *bench) error {
		return runSimWorkload(ctx, b, func() [][]sweep.Job { return fig7EightJobs(b.seed) }, 3, 20)
	},
	"svc-latency":    runSvcLatency,
	"fleet-campaign": runFleetCampaign,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig7-single, fig7-eight, svc-latency or fleet-campaign")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {fig7-single|fig7-eight|svc-latency|fleet-campaign}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	callers := 0
	switch *name {
	case "svc-latency":
		callers = svcCallers
	case "fleet-campaign":
		callers = fleetDaemons // one dispatch slot per 1-worker daemon
	}
	h := host(callers)
	if h.Oversubscribed {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: %d workers / %d callers exceed nproc %d; figures are oversubscribed\n", simWorkers, callers, h.NumCPU)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		rng:     rand.New(rand.NewPCG(*seed, 0x6368617267656361)),
		rep:     newReport(),
		tmp:     tmp,
	}
	if b.traced {
		b.tr = newTracer()
	}
	stop := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	defer stop.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := runWorkload(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Printf("# host %s\n", mustJSON(h))
	if b.traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path, h); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	b.rep.write(os.Stdout, b.traced)
	return 0
}
