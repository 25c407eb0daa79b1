// Command benchrecord measures the simulation core's two execution
// engines on the Quick-scale Figure 7a campaign (22 single-core
// workloads × 5 mechanisms) and on one Quick-scale Figure 7b mix (eight
// cores × 5 mechanisms), and writes the numbers to a JSON file
// (default BENCH_simcore.json), so every change that touches the hot
// path leaves a comparable data point behind.
//
// Each config is run under both engines back to back (stepper, then
// event), so per-workload speedups compare measurements taken moments
// apart — robust against machine-load drift over the campaign, which
// two separate full passes are not.
//
// Recorded per engine: campaign wall clock, ns per simulated
// megacycle, and sweep throughput (configs/sec); for the event-driven
// engine additionally the fraction of cycles it actually executed.
// The headline "speedup" is stepper wall clock over event wall clock
// for the identical campaign — both engines produce bit-identical
// Results (see internal/sim/differential_test.go), so the comparison
// is pure engine overhead.
//
// The run doubles as a regression gate:
//
//   - -min-speedup R (default 1.0) fails the run if any workload's
//     event-vs-stepper speedup, or the eight-core mix's, drops below
//     R — an event engine slower than the reference stepper on any
//     workload is a perf bug, not a data point. Set R <= 0 to disable.
//
//   - -compare FILE diffs the fresh numbers against a committed
//     BENCH_simcore.json and fails on a >10% (-max-regress) drop in
//     either engine's aggregate configs_per_sec. For the eight-core
//     mix it fails on a >10% rise in the event engine's executed-cycle
//     fraction, which is deterministic and so holds on any host. The
//     mix's wall-clock speedup is held only to -min-speedup: it moved
//     by 15% between two back-to-back runs on one host.
//
//     benchrecord                  # full campaign, writes BENCH_simcore.json
//     benchrecord -quick           # 6-workload subset (CI smoke)
//     benchrecord -out bench.json  # alternate output path
//     benchrecord -compare BENCH_simcore.json -out /tmp/bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/version"
	"repro/internal/workload"
)

// engineStats summarizes one engine's pass over the campaign.
type engineStats struct {
	WallMS            float64 `json:"wall_ms"`
	SimMegacycles     float64 `json:"sim_megacycles"`
	NsPerMegacycle    float64 `json:"ns_per_megacycle"`
	ConfigsPerSec     float64 `json:"configs_per_sec"`
	ExecutedFraction  float64 `json:"executed_cycle_fraction,omitempty"`
	ExecutedCycles    int64   `json:"executed_cycles"`
	TotalCycles       int64   `json:"total_cycles"`
	InstructionsTotal uint64  `json:"instructions_total"`
}

// workloadRow is the per-workload breakdown (5 configs each).
type workloadRow struct {
	Workload     string  `json:"workload"`
	StepperMS    float64 `json:"stepper_ms"`
	EventMS      float64 `json:"event_ms"`
	Speedup      float64 `json:"speedup"`
	ExecFraction float64 `json:"event_executed_cycle_fraction"`
}

// eightCoreRow is one Quick-scale Figure 7b mix under the five
// mechanisms, each config run under both engines back to back.
type eightCoreRow struct {
	Mix          []string `json:"mix"`
	Jobs         int      `json:"jobs"`
	StepperMS    float64  `json:"stepper_ms"`
	EventMS      float64  `json:"event_ms"`
	Speedup      float64  `json:"speedup"`
	ExecFraction float64  `json:"event_executed_cycle_fraction"`
}

// record is the BENCH_simcore.json schema.
type record struct {
	Generated   string                 `json:"generated"`
	Version     string                 `json:"version"`
	Campaign    string                 `json:"campaign"`
	Scale       string                 `json:"scale"`
	Jobs        int                    `json:"jobs"`
	GoVersion   string                 `json:"go_version"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	GOMAXPROCS  int                    `json:"gomaxprocs"`
	Engines     map[string]engineStats `json:"engines"`
	Speedup     float64                `json:"speedup_event_vs_stepper"`
	PerWorkload []workloadRow          `json:"per_workload"`
	EightCore   *eightCoreRow          `json:"eight_core,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrecord: ")

	out := flag.String("out", "BENCH_simcore.json", "output JSON path")
	quick := flag.Bool("quick", false, "run a 6-workload subset instead of the full 22 (CI smoke)")
	minSpeedup := flag.Float64("min-speedup", 1.0,
		"fail if any workload's event-vs-stepper speedup is below this (<=0 disables)")
	compare := flag.String("compare", "",
		"committed BENCH_simcore.json to diff against; fail on aggregate throughput regression")
	maxRegress := flag.Float64("max-regress", 0.10,
		"maximum tolerated fractional regression for -compare (configs_per_sec and eight-core executed-cycle fraction)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("benchrecord %s\n", version.String())
		return
	}

	scale := experiments.Quick()
	names := workload.Names()
	if *quick {
		names = names[:6]
	}

	// The Figure 7a per-row config group: baseline plus the four
	// evaluated mechanisms, mirroring experiments.Fig7Single.
	mechs := []sim.MechanismKind{
		sim.Baseline, sim.NUAT, sim.ChargeCache, sim.ChargeCacheNUAT, sim.LLDRAM,
	}
	type job struct {
		workload string
		cfg      sim.Config
	}
	var jobs []job
	for _, name := range names {
		base := sim.DefaultConfig(name)
		base.WarmupInstructions = scale.WarmupInstructions
		base.RunInstructions = scale.RunInstructions
		for _, m := range mechs {
			cfg := base
			cfg.Mechanism = m
			jobs = append(jobs, job{workload: name, cfg: cfg})
		}
	}

	rec := record{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Version:    version.String(),
		Campaign:   "fig7a",
		Scale:      "quick",
		Jobs:       len(jobs),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Engines:    map[string]engineStats{},
	}

	perWorkload := map[string]*workloadRow{}
	for _, name := range names {
		perWorkload[name] = &workloadRow{Workload: name}
	}

	runOne := func(cfg sim.Config, stepper bool) (time.Duration, sim.Result, *sim.System) {
		cfg.Stepper = stepper
		sys, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := sys.Run()
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), res, sys
	}
	retired := func(res sim.Result) uint64 {
		var n uint64
		for _, pc := range res.PerCore {
			n += pc.Instructions
		}
		return n
	}

	var stStats, evStats engineStats
	var stTotal, evTotal time.Duration
	for _, j := range jobs {
		row := perWorkload[j.workload]

		wall, res, sys := runOne(j.cfg, true)
		stTotal += wall
		stStats.TotalCycles += sys.TotalCycles()
		stStats.ExecutedCycles += sys.ExecutedCycles()
		stStats.InstructionsTotal += retired(res)
		row.StepperMS += float64(wall) / float64(time.Millisecond)

		wall, res, sys = runOne(j.cfg, false)
		evTotal += wall
		evStats.TotalCycles += sys.TotalCycles()
		evStats.ExecutedCycles += sys.ExecutedCycles()
		evStats.InstructionsTotal += retired(res)
		row.EventMS += float64(wall) / float64(time.Millisecond)
		// Running weighted mean over the workload's five configs.
		row.ExecFraction += float64(sys.ExecutedCycles()) / float64(sys.TotalCycles()) / float64(len(mechs))
	}

	finish := func(st *engineStats, total time.Duration, name string) {
		st.WallMS = float64(total) / float64(time.Millisecond)
		st.SimMegacycles = float64(st.TotalCycles) / 1e6
		st.NsPerMegacycle = float64(total.Nanoseconds()) / st.SimMegacycles
		st.ConfigsPerSec = float64(len(jobs)) / total.Seconds()
		log.Printf("%-7s %7.0f ms  %8.0f ns/Mcycle  %6.2f configs/s",
			name, st.WallMS, st.NsPerMegacycle, st.ConfigsPerSec)
	}
	finish(&stStats, stTotal, "stepper")
	evStats.ExecutedFraction = float64(evStats.ExecutedCycles) / float64(evStats.TotalCycles)
	finish(&evStats, evTotal, "event")
	rec.Engines["stepper"] = stStats
	rec.Engines["event"] = evStats

	rec.Speedup = stStats.WallMS / evStats.WallMS
	slow := 0
	for _, name := range names {
		row := perWorkload[name]
		row.Speedup = row.StepperMS / row.EventMS
		rec.PerWorkload = append(rec.PerWorkload, *row)
		if *minSpeedup > 0 && row.Speedup < *minSpeedup {
			log.Printf("FAIL: %s event engine speedup %.3fx below floor %.2fx (stepper %.1f ms, event %.1f ms)",
				name, row.Speedup, *minSpeedup, row.StepperMS, row.EventMS)
			slow++
		}
	}
	log.Printf("campaign speedup (event vs stepper): %.2fx", rec.Speedup)

	// The eight-core engine path: the Figure 7b Quick-scale mix w1.
	eight := &eightCoreRow{Mix: workload.EightCoreMixes(scale.MixSeed, 1)[0], Jobs: len(mechs)}
	var eightExec, eightTotal int64
	for _, m := range mechs {
		cfg := sim.DefaultConfig(eight.Mix...)
		cfg.WarmupInstructions = scale.WarmupInstructions
		cfg.RunInstructions = scale.RunInstructions
		cfg.Mechanism = m
		wall, _, _ := runOne(cfg, true)
		eight.StepperMS += float64(wall) / float64(time.Millisecond)
		wall, _, sys := runOne(cfg, false)
		eight.EventMS += float64(wall) / float64(time.Millisecond)
		eightExec += sys.ExecutedCycles()
		eightTotal += sys.TotalCycles()
	}
	eight.Speedup = eight.StepperMS / eight.EventMS
	eight.ExecFraction = float64(eightExec) / float64(eightTotal)
	rec.EightCore = eight
	log.Printf("eight-core mix speedup (event vs stepper): %.2fx, executed-cycle fraction %.4f",
		eight.Speedup, eight.ExecFraction)
	if *minSpeedup > 0 && eight.Speedup < *minSpeedup {
		log.Printf("FAIL: eight-core mix event engine speedup %.3fx below floor %.2fx (stepper %.1f ms, event %.1f ms)",
			eight.Speedup, *minSpeedup, eight.StepperMS, eight.EventMS)
		slow++
	}

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)

	if slow > 0 {
		log.Fatalf("%d workload(s) below the per-workload speedup floor", slow)
	}
	if *compare != "" {
		if err := compareAgainst(*compare, rec, *maxRegress); err != nil {
			log.Fatal(err)
		}
	}
}

// compareAgainst diffs the fresh record's aggregate throughput and
// eight-core executed-cycle fraction against a committed baseline and errors on a
// regression beyond tolerance.
func compareAgainst(path string, fresh record, tolerance float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base record
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("compare %s: %w", path, err)
	}
	for _, engine := range []string{"stepper", "event"} {
		was := base.Engines[engine].ConfigsPerSec
		now := fresh.Engines[engine].ConfigsPerSec
		if was <= 0 {
			continue
		}
		drop := 1 - now/was
		log.Printf("compare %-7s configs/s: committed %.2f, fresh %.2f (%+.1f%%)",
			engine, was, now, 100*(now/was-1))
		if drop > tolerance {
			return fmt.Errorf("compare: %s engine configs_per_sec regressed %.1f%% (> %.0f%% tolerated) against %s",
				engine, 100*drop, 100*tolerance, path)
		}
	}
	if base.EightCore == nil || fresh.EightCore == nil {
		return nil
	}
	was, now := base.EightCore, fresh.EightCore
	log.Printf("compare eight-core speedup: committed %.2fx, fresh %.2fx; executed-cycle fraction: committed %.4f, fresh %.4f",
		was.Speedup, now.Speedup, was.ExecFraction, now.ExecFraction)
	if was.ExecFraction > 0 && now.ExecFraction/was.ExecFraction-1 > tolerance {
		return fmt.Errorf("compare: eight-core executed-cycle fraction rose from %.4f to %.4f (> %.0f%% tolerated) against %s",
			was.ExecFraction, now.ExecFraction, 100*tolerance, path)
	}
	return nil
}
