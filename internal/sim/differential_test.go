package sim

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// canonical returns the byte-exact JSON form of a Result with the
// engine-selection flag cleared, so results from the two engines can be
// compared field by field. Everything else — per-core IPC, cycle
// counts, controller/mechanism/LLC/DRAM counters, energy, RLTL — must
// match bit for bit.
func canonical(t *testing.T, res Result) string {
	t.Helper()
	res.Config.Stepper = false
	// The phase profile is host wall-clock (and its call counts depend
	// on how often each engine enters the hook sites), so it is
	// excluded from the bit-identity contract by design.
	if res.Analysis != nil && res.Analysis.Phases != nil {
		rep := *res.Analysis
		rep.Phases = nil
		res.Analysis = &rep
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// runEngine executes cfg with the selected engine.
func runEngine(t *testing.T, cfg Config, stepper bool) Result {
	t.Helper()
	cfg.Stepper = stepper
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertEngineEquivalence fails the test when the event-driven engine
// and the reference stepper disagree on any Result bit for cfg.
func assertEngineEquivalence(t *testing.T, cfg Config) {
	t.Helper()
	assertSameResult(t, runEngine(t, cfg, false), runEngine(t, cfg, true))
}

// assertSameResult fails the test when the event-driven engine's and
// the reference stepper's Results differ in any canonical bit.
func assertSameResult(t *testing.T, eventRes, stepRes Result) {
	t.Helper()
	event := canonical(t, eventRes)
	step := canonical(t, stepRes)
	if event == step {
		return
	}
	// Locate the first divergence for a readable failure.
	var ev, st map[string]json.RawMessage
	if err := json.Unmarshal([]byte(event), &ev); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(step), &st); err != nil {
		t.Fatal(err)
	}
	for k, v := range st {
		if string(ev[k]) != string(v) {
			t.Errorf("field %s diverged:\n event   %s\n stepper %s", k, ev[k], v)
		}
	}
	t.Fatalf("event-driven engine diverged from reference stepper")
}

// diffScale shrinks a config to differential-suite budgets: big enough
// to cross refresh windows, LLC evictions and ChargeCache expiry, small
// enough to run the whole matrix quickly.
func diffScale(cfg Config) Config {
	cfg.WarmupInstructions = 6_000
	cfg.RunInstructions = 30_000
	return cfg
}

// TestDifferentialMechanisms runs every mechanism through both engines
// on a memory-intensive workload and demands bit-identical results.
// This is the PR's primary safety net: any scheduler event the
// event-driven engine misses shifts a command by at least one cycle,
// which shows up in the latency histogram, the cycle counts or the
// energy integrals.
func TestDifferentialMechanisms(t *testing.T) {
	for _, mech := range MechanismKinds() {
		t.Run(mech.String(), func(t *testing.T) {
			cfg := diffScale(DefaultConfig("lbm"))
			cfg.Mechanism = mech
			assertEngineEquivalence(t, cfg)
		})
	}
}

// TestDifferentialWorkloadMatrix sweeps workload patterns spanning the
// simulator's behaviours: streaming (bank conflicts), random (row
// misses), Zipf (LLC + HCRAC hits), a cache-resident workload (pure
// bubble flow), and the most memory-intensive profile (MSHR pressure).
func TestDifferentialWorkloadMatrix(t *testing.T) {
	workloads := []string{"libquantum", "sjeng", "tpch6", "hmmer", "STREAMcopy"}
	if testing.Short() {
		workloads = workloads[:2]
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := diffScale(DefaultConfig(name))
			cfg.Mechanism = ChargeCache
			assertEngineEquivalence(t, cfg)
		})
	}
}

// TestDifferentialLongHorizon runs configs far past the short suite's
// budget: dozens of refresh windows, long write-drain episodes and, for
// the eight-core mixes, writebacks that one channel's completion sends
// to another within the same bus cycle. Short runs rarely reach the
// states where controller state changed on a tick the event engine
// skips, or where an arrival stamp depends on which channels have
// already ticked; these cases each reached one.
func TestDifferentialLongHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon differential skipped in -short mode")
	}
	cases := []struct {
		name        string
		workloads   []string
		mech        MechanismKind
		seed        uint64
		warmup, run uint64
	}{
		{"STREAMcopy-seed7", []string{"STREAMcopy"}, ChargeCache, 7, 0, 400_000},
		{"tpch17-seed1", []string{"tpch17"}, ChargeCache, 1, 0, 400_000},
		{"soplex-seed3", []string{"soplex"}, ChargeCache, 3, 0, 400_000},
		{"bzip2-baseline-seed1", []string{"bzip2"}, Baseline, 1, 0, 2_000_000},
		{"libquantum-seed1", []string{"libquantum"}, ChargeCache, 1, 1_000_000, 1_000_000},
		// Eight-core mixes at the experiments' Quick-scale budgets,
		// closed-row over two channels (DefaultConfig's multi-core shape).
		{"mix42-0-baseline-seed1", workload.EightCoreMixes(42, 4)[0], Baseline, 1, 300_000, 150_000},
		// The mix with two STREAMcopy cores.
		{"mix7-11-seed7", workload.EightCoreMixes(7, 16)[11], ChargeCache, 7, 300_000, 150_000},
		// hmmer stays in the LLC and reaches its target long before the
		// other seven, then keeps running on its own lazy clock.
		{"mix-hmmer-early-seed5", hmmerEarlyMix, ChargeCache, 5, 300_000, 150_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.workloads...)
			cfg.WarmupInstructions = tc.warmup
			cfg.RunInstructions = tc.run
			cfg.Seed = tc.seed
			cfg.Mechanism = tc.mech
			assertEngineEquivalence(t, cfg)
		})
	}
}

// hmmerEarlyMix is an eight-core mix whose first core finishes long
// before the rest: hmmer's 2 MB footprint stays in the LLC while the
// other seven are memory-bound.
var hmmerEarlyMix = []string{"hmmer", "STREAMcopy", "tpch17", "soplex", "sjeng", "tpcc64", "mcf", "libquantum"}

// TestDifferentialChannelsAndPolicies covers the scheduling dimensions:
// row policy × channel count (multi-channel exercises per-channel
// mechanism instances and request interleaving), plus a multi-core mix
// where cores contend for the LLC and MSHRs.
func TestDifferentialChannelsAndPolicies(t *testing.T) {
	cases := []struct {
		name     string
		policy   memctrl.RowPolicy
		channels int
		cores    []string
	}{
		{"open-1ch", memctrl.OpenRow, 1, []string{"lbm"}},
		{"closed-1ch", memctrl.ClosedRow, 1, []string{"lbm"}},
		{"open-2ch", memctrl.OpenRow, 2, []string{"mcf"}},
		{"closed-2ch-4core", memctrl.ClosedRow, 2, []string{"lbm", "sjeng", "tpch17", "hmmer"}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := diffScale(DefaultConfig(tc.cores...))
			cfg.RowPolicy = tc.policy
			cfg.Channels = tc.channels
			cfg.Mechanism = ChargeCache
			assertEngineEquivalence(t, cfg)
		})
	}
}

// TestDifferentialInvalidationModes covers both ChargeCache expiry
// schemes plus the unlimited table: the IIC/EC walk is the component
// the tentpole converts from per-cycle ticking to lazy catch-up, so a
// missed invalidation here would directly flip activation classes.
func TestDifferentialInvalidationModes(t *testing.T) {
	cases := []struct {
		name      string
		policy    core.InvalidationPolicy
		unlimited bool
	}{
		{"iic-ec", core.PeriodicIICEC, false},
		{"exact-expiry", core.ExactExpiry, false},
		{"unlimited", core.PeriodicIICEC, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := diffScale(DefaultConfig("libquantum"))
			cfg.Mechanism = ChargeCache
			cfg.CCInvalidation = tc.policy
			cfg.CCUnlimited = tc.unlimited
			// A short duration forces expiries inside the run window.
			cfg.CCDurationMs = 0.05
			assertEngineEquivalence(t, cfg)
		})
	}
}

// TestDifferentialEdges covers the remaining Result-shaping paths: RLTL
// tracking (observer event times), saturation (the cycle cap must bound
// jumps exactly), the FixedRC ablation, and non-DDR3 standards.
func TestDifferentialEdges(t *testing.T) {
	t.Run("rltl", func(t *testing.T) {
		cfg := diffScale(DefaultConfig("lbm"))
		cfg.TrackRLTL = true
		assertEngineEquivalence(t, cfg)
	})
	t.Run("saturated", func(t *testing.T) {
		cfg := diffScale(DefaultConfig("lbm"))
		cfg.MaxCycles = 40_000
		assertEngineEquivalence(t, cfg)
	})
	if testing.Short() {
		return
	}
	t.Run("fixed-rc", func(t *testing.T) {
		cfg := diffScale(DefaultConfig("lbm"))
		cfg.Mechanism = ChargeCache
		cfg.FixedRC = true
		assertEngineEquivalence(t, cfg)
	})
	t.Run("lpddr3", func(t *testing.T) {
		cfg := diffScale(DefaultConfig("lbm"))
		cfg.Standard = "lpddr3"
		assertEngineEquivalence(t, cfg)
	})
	t.Run("seed-variation", func(t *testing.T) {
		cfg := diffScale(DefaultConfig("sjeng"))
		cfg.Seed = 12345
		assertEngineEquivalence(t, cfg)
	})
}

// TestDifferentialSweepShape mirrors the figure campaigns' sweep axes
// on a reduced grid: ChargeCache capacity and caching duration, the
// knobs Figures 9-11 vary.
func TestDifferentialSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-shape differential runs many configs")
	}
	for _, entries := range []int{32, 512} {
		for _, durMs := range []float64{0.1, 1} {
			name := fmt.Sprintf("entries=%d/dur=%gms", entries, durMs)
			t.Run(name, func(t *testing.T) {
				cfg := diffScale(DefaultConfig("mcf"))
				cfg.Mechanism = ChargeCache
				cfg.CCEntriesPerCore = entries
				cfg.CCDurationMs = durMs
				assertEngineEquivalence(t, cfg)
			})
		}
	}
}
