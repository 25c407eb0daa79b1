package main

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestUnattributedFracMemoryBound checks the traced phase accounting on
// memory-bound configs, where controller enqueues nested in LLC lookups
// are most frequent: no time is counted twice, so the share outside
// every phase stays in [0, 1), and the LLC lookup time left after
// taking out its nested enqueues stays positive.
func TestUnattributedFracMemoryBound(t *testing.T) {
	single := sim.DefaultConfig("STREAMcopy")
	mix := sim.DefaultConfig(workload.EightCoreMixes(3, 1)[0]...)
	for _, cfg := range []sim.Config{single, mix} {
		cfg.Mechanism = sim.ChargeCache
		cfg.WarmupInstructions = 100_000
		cfg.RunInstructions = 100_000
		res, elapsed, err := runInProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		tracedSims(r, nil, []ran{{job: sweep.Job{Label: "cfg", Config: cfg}, res: res, elapsed: elapsed}})
		if len(r.violations) != 0 {
			t.Fatalf("%d cores: %v", len(cfg.Workloads), r.violations)
		}
		frac, ok := r.values["sim.unattributed_frac"]
		if !ok || frac < 0 || frac >= 1 {
			t.Errorf("%d cores: sim.unattributed_frac = %v (set %v), want in [0, 1)", len(cfg.Workloads), frac, ok)
		}
		if v := r.values["cache.lookup_ns"]; v <= 0 {
			t.Errorf("%d cores: cache.lookup_ns = %v, want > 0", len(cfg.Workloads), v)
		}
	}
}
