package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// checkResult applies the seed-independent output gate to one
// simulated Result of cfg and returns every invariant it breaks. The
// checks hold for any seed, budget and core count; none pins a
// per-seed constant. Row-outcome sums are deliberately not checked:
// rows are classified when the scheduler's walk reaches them, so
// RowHits+RowMisses+RowConflicts need not equal the requests served.
func checkResult(cfg sim.Config, res sim.Result) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if res.Saturated {
		fail("run saturated before every core retired its budget")
	}
	if len(res.PerCore) != len(cfg.Workloads) {
		fail("%d per-core results for %d cores", len(res.PerCore), len(cfg.Workloads))
	}
	for i, c := range res.PerCore {
		if c.Instructions != cfg.RunInstructions {
			fail("core %d retired %d of %d instructions", i, c.Instructions, cfg.RunInstructions)
		}
		if !(c.IPC > 0 && c.IPC <= 3) {
			fail("core %d IPC %g outside (0, 3]", i, c.IPC)
		}
	}
	if res.Mechanism.Lookups != res.Controller.Activations || res.Controller.Activations != res.Counts.ACT {
		fail("mechanism lookups %d, controller activations %d and ACT commands %d differ",
			res.Mechanism.Lookups, res.Controller.Activations, res.Counts.ACT)
	}
	if res.Controller.FastActivations != res.Counts.FastACT {
		fail("controller fast activations %d != fast ACT commands %d", res.Controller.FastActivations, res.Counts.FastACT)
	}
	if res.Counts.RD != res.Controller.ReadsServed {
		fail("RD commands %d != reads served %d", res.Counts.RD, res.Controller.ReadsServed)
	}
	if res.Counts.WR != res.Controller.WritesServed {
		fail("WR commands %d != writes served %d", res.Counts.WR, res.Controller.WritesServed)
	}
	switch mechanismOf(cfg) {
	case sim.Baseline:
		if res.Counts.FastACT != 0 {
			fail("Baseline issued %d fast ACTs", res.Counts.FastACT)
		}
	case sim.LLDRAM:
		if res.Counts.FastACT != res.Counts.ACT {
			fail("LL-DRAM issued %d fast of %d ACTs", res.Counts.FastACT, res.Counts.ACT)
		}
	case sim.ChargeCache:
		if res.Mechanism.Hits != res.Counts.FastACT {
			fail("ChargeCache hits %d != fast ACTs %d", res.Mechanism.Hits, res.Counts.FastACT)
		}
	}
	if !(res.Energy.Total() > 0) {
		fail("DRAM energy %g is not positive", res.Energy.Total())
	}
	return bad
}

// mechanismOf is the mechanism a config evaluates: the benchmark's
// traced ChargeCache shim runs as Custom but is ChargeCache.
func mechanismOf(cfg sim.Config) sim.MechanismKind {
	if cfg.Mechanism == sim.Custom && cfg.CustomMechanism != nil {
		return sim.ChargeCache
	}
	return cfg.Mechanism
}

// canonical is the byte form results are compared in: the Config (it
// differs in harmless ways between a wire round trip and an in-process
// run) and the host-timed phase profile are stripped. withAnalysis
// false also drops the analysis report, for comparing a traced run
// against an untraced one.
func canonical(res sim.Result, withAnalysis bool) []byte {
	res.Config = sim.Config{}
	if !withAnalysis {
		res.Analysis = nil
	} else if res.Analysis != nil {
		a := *res.Analysis
		a.Phases = nil
		res.Analysis = &a
	}
	b, err := json.Marshal(res)
	if err != nil {
		// A Result holds only numbers, strings and slices of them.
		panic(fmt.Sprintf("perfbench: marshal result: %v", err))
	}
	return b
}

// sameResult reports whether two results are byte-identical in
// canonical form, and a short description of the first difference.
func sameResult(a, b sim.Result, withAnalysis bool) (bool, string) {
	ca, cb := canonical(a, withAnalysis), canonical(b, withAnalysis)
	if bytes.Equal(ca, cb) {
		return true, ""
	}
	i := 0
	for i < len(ca) && i < len(cb) && ca[i] == cb[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) string {
		hi := i + 40
		if hi > len(b) {
			hi = len(b)
		}
		if lo >= hi {
			return ""
		}
		return string(b[lo:hi])
	}
	return false, fmt.Sprintf("first difference at byte %d: %q vs %q", i, clip(ca), clip(cb))
}

// gate checks one result against the invariants and, when ref is
// non-nil, byte-identity with a reference result, recording violations
// on r under label.
func (r *report) gate(label string, cfg sim.Config, res sim.Result, ref *sim.Result, withAnalysis bool) {
	for _, v := range checkResult(cfg, res) {
		r.violatef("%s: %s", label, v)
	}
	if ref != nil {
		if ok, diff := sameResult(res, *ref, withAnalysis); !ok {
			r.violatef("%s: result differs from the reference run: %s", label, diff)
		}
	}
}
