package main

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestShimMatchesChargeCache checks the traced run's counting shim is
// transparent: single- and eight-core ChargeCache configs give the same
// results through it as Mechanism: ChargeCache.
func TestShimMatchesChargeCache(t *testing.T) {
	single := sim.DefaultConfig("STREAMcopy")
	mix := sim.DefaultConfig(workload.EightCoreMixes(3, 1)[0]...)
	for _, cfg := range []sim.Config{single, mix} {
		cfg.Mechanism = sim.ChargeCache
		cfg.WarmupInstructions = 40_000
		cfg.RunInstructions = 40_000
		want, _, err := runInProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mt mechTrace
		got, _, err := runInProcess(withShim(cfg, &mt))
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameResult(got, want, true); !ok {
			t.Errorf("%d cores: shim result differs: %s", len(cfg.Workloads), diff)
		}
		if mt.measuredFrom.IsZero() {
			t.Errorf("%d cores: shim never saw the end of warm-up", len(cfg.Workloads))
		}
		if mt.calls[opActivate] != got.Mechanism.Lookups {
			t.Errorf("%d cores: shim counted %d activations, mechanism %d lookups", len(cfg.Workloads), mt.calls[opActivate], got.Mechanism.Lookups)
		}
		if mt.calls[opTick] == 0 || mt.samples[opTick] == 0 || mt.estimatedNs(opTick) <= 0 {
			t.Errorf("%d cores: Tick not counted and timed: %+v", len(cfg.Workloads), mt)
		}
		if bad := checkResult(withShim(cfg, &mechTrace{}), got); len(bad) != 0 {
			t.Errorf("%d cores: shim result fails the gate: %v", len(cfg.Workloads), bad)
		}
	}
}
