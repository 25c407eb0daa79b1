package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// quickConfig returns a small configuration that runs in well under a
// second, for tests.
func quickConfig(workloads ...string) Config {
	cfg := DefaultConfig(workloads...)
	cfg.WarmupInstructions = 20_000
	cfg.RunInstructions = 60_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Saturated {
		t.Fatalf("run saturated: %+v", res.Config)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := quickConfig("mcf")
	bad.Channels = 3
	if _, err := New(bad); err == nil {
		t.Error("non-power-of-two channels accepted")
	}
	bad = quickConfig("mcf")
	bad.RunInstructions = 0
	if _, err := New(bad); err == nil {
		t.Error("zero instructions accepted")
	}
	bad = quickConfig("nonesuch")
	if _, err := New(bad); err == nil {
		t.Error("unknown workload accepted")
	}
	bad = quickConfig("mcf")
	bad.CCDurationMs = 0
	if _, err := New(bad); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	single := DefaultConfig("mcf")
	if single.Channels != 1 || single.RowPolicy != memctrl.OpenRow {
		t.Errorf("single-core defaults: %d channels, %v", single.Channels, single.RowPolicy)
	}
	multi := DefaultConfig("mcf", "lbm", "sjeng", "astar", "milc", "tonto", "bzip2", "soplex")
	if multi.Channels != 2 || multi.RowPolicy != memctrl.ClosedRow {
		t.Errorf("8-core defaults: %d channels, %v", multi.Channels, multi.RowPolicy)
	}
	if multi.LLC.SizeBytes != 4<<20 || multi.LLC.Ways != 16 {
		t.Errorf("LLC defaults: %+v", multi.LLC)
	}
	if multi.CCEntriesPerCore != 128 || multi.CCAssoc != 2 || multi.CCDurationMs != 1 {
		t.Errorf("ChargeCache defaults: %+v", multi)
	}
	if multi.ClockRatio != 5 {
		t.Errorf("clock ratio = %d", multi.ClockRatio)
	}
}

func TestSingleCoreRunProducesSaneResult(t *testing.T) {
	res := mustRun(t, quickConfig("libquantum"))
	if len(res.PerCore) != 1 {
		t.Fatalf("per-core results = %d", len(res.PerCore))
	}
	pc := res.PerCore[0]
	if pc.Workload != "libquantum" || pc.Instructions != 60_000 {
		t.Errorf("per-core = %+v", pc)
	}
	if pc.IPC <= 0 || pc.IPC > 3 {
		t.Errorf("IPC = %g out of (0,3]", pc.IPC)
	}
	if res.Controller.ReadsServed == 0 || res.Controller.Activations == 0 {
		t.Errorf("no DRAM activity: %+v", res.Controller)
	}
	if res.Counts.ACT == 0 || res.Counts.RD == 0 {
		t.Errorf("channel counts empty: %+v", res.Counts)
	}
	if res.Energy.Total() <= 0 {
		t.Error("energy not positive")
	}
	if res.RMPKC() <= 0 {
		t.Error("RMPKC not positive")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := mustRun(t, quickConfig("omnetpp"))
	b := mustRun(t, quickConfig("omnetpp"))
	if a.PerCore[0].Cycles != b.PerCore[0].Cycles {
		t.Errorf("cycles differ: %d vs %d", a.PerCore[0].Cycles, b.PerCore[0].Cycles)
	}
	if a.Controller.Activations != b.Controller.Activations {
		t.Error("activations differ between identical runs")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quickConfig("omnetpp")
	a := mustRun(t, cfg)
	cfg2 := quickConfig("omnetpp")
	cfg2.Seed = 999
	b := mustRun(t, cfg2)
	if a.PerCore[0].Cycles == b.PerCore[0].Cycles && a.Controller.Activations == b.Controller.Activations {
		t.Error("different seeds produced identical runs")
	}
}

func TestChargeCacheNeverSlower(t *testing.T) {
	// The paper: "As ChargeCache can only reduce the latency of certain
	// accesses, it does not degrade performance."
	for _, name := range []string{"libquantum", "tpch17", "lbm"} {
		base := mustRun(t, quickConfig(name))
		cc := quickConfig(name)
		cc.Mechanism = ChargeCache
		r := mustRun(t, cc)
		if r.PerCore[0].IPC < base.PerCore[0].IPC*0.995 {
			t.Errorf("%s: ChargeCache IPC %.4f below baseline %.4f",
				name, r.PerCore[0].IPC, base.PerCore[0].IPC)
		}
	}
}

func TestLLDRAMIsUpperBound(t *testing.T) {
	name := "lbm"
	cc := quickConfig(name)
	cc.Mechanism = ChargeCache
	ll := quickConfig(name)
	ll.Mechanism = LLDRAM
	rcc := mustRun(t, cc)
	rll := mustRun(t, ll)
	if rll.PerCore[0].IPC < rcc.PerCore[0].IPC*0.998 {
		t.Errorf("LL-DRAM IPC %.4f below ChargeCache %.4f", rll.PerCore[0].IPC, rcc.PerCore[0].IPC)
	}
	if rll.HitRate() != 1 {
		t.Errorf("LL-DRAM hit rate = %g", rll.HitRate())
	}
}

func TestChargeCacheSpeedsUpHighRLTLWorkload(t *testing.T) {
	base := mustRun(t, quickConfig("lbm"))
	cc := quickConfig("lbm")
	cc.Mechanism = ChargeCache
	r := mustRun(t, cc)
	if r.PerCore[0].IPC <= base.PerCore[0].IPC {
		t.Errorf("no speedup on lbm: %.4f vs %.4f", r.PerCore[0].IPC, base.PerCore[0].IPC)
	}
	if r.Controller.FastActivations == 0 {
		t.Error("no fast activations recorded")
	}
	if r.Counts.FastACT == 0 {
		t.Error("channel saw no fast ACTs")
	}
}

func TestMechanismKindsAndStrings(t *testing.T) {
	kinds := MechanismKinds()
	if len(kinds) != 5 {
		t.Fatalf("kinds = %d", len(kinds))
	}
	want := map[MechanismKind]string{
		Baseline: "Baseline", ChargeCache: "ChargeCache", NUAT: "NUAT",
		ChargeCacheNUAT: "ChargeCache+NUAT", LLDRAM: "LL-DRAM",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if MechanismKind(99).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestAllMechanismsRun(t *testing.T) {
	for _, k := range MechanismKinds() {
		cfg := quickConfig("tpch17")
		cfg.Mechanism = k
		res := mustRun(t, cfg)
		if res.PerCore[0].IPC <= 0 {
			t.Errorf("%v: IPC = %g", k, res.PerCore[0].IPC)
		}
	}
}

func TestMultiCoreRun(t *testing.T) {
	cfg := quickConfig("libquantum", "mcf", "lbm", "sjeng")
	cfg.Mechanism = ChargeCache
	res := mustRun(t, cfg)
	if len(res.PerCore) != 4 {
		t.Fatalf("per-core = %d", len(res.PerCore))
	}
	for i, pc := range res.PerCore {
		if pc.IPC <= 0 {
			t.Errorf("core %d IPC = %g", i, pc.IPC)
		}
	}
	if len(res.IPCs()) != 4 {
		t.Error("IPCs() wrong length")
	}
}

func TestRLTLTracking(t *testing.T) {
	cfg := quickConfig("STREAMcopy")
	// RLTL needs a warm LLC: cold-miss streams are row hits, not
	// conflicts, so the conflict-driven locality only appears once
	// evictions and writebacks flow.
	cfg.WarmupInstructions = 1_500_000
	cfg.RunInstructions = 500_000
	cfg.TrackRLTL = true
	res := mustRun(t, cfg)
	if res.RLTL == nil {
		t.Fatal("RLTL result missing")
	}
	if len(res.RLTL.Fractions) != len(cfg.RLTLIntervalsMs) {
		t.Fatalf("fractions = %d", len(res.RLTL.Fractions))
	}
	// Fractions are cumulative in the interval: wider interval >= narrower.
	for i := 1; i < len(res.RLTL.Fractions); i++ {
		if res.RLTL.Fractions[i] < res.RLTL.Fractions[i-1] {
			t.Errorf("RLTL not monotone at %d: %v", i, res.RLTL.Fractions)
		}
	}
	// STREAMcopy interleaves streams in the same bank: high RLTL.
	if res.RLTL.Fractions[0] < 0.5 {
		t.Errorf("STREAMcopy 0.125ms-RLTL = %g, want high", res.RLTL.Fractions[0])
	}
	// Without tracking, no RLTL result.
	cfg2 := quickConfig("STREAMcopy")
	if r2 := mustRun(t, cfg2); r2.RLTL != nil {
		t.Error("RLTL present without tracking")
	}
}

func TestUnlimitedChargeCacheHitRateAtLeastBounded(t *testing.T) {
	bounded := quickConfig("tpch17")
	bounded.Mechanism = ChargeCache
	rb := mustRun(t, bounded)
	unlimited := quickConfig("tpch17")
	unlimited.Mechanism = ChargeCache
	unlimited.CCUnlimited = true
	ru := mustRun(t, unlimited)
	if ru.HitRate() < rb.HitRate() {
		t.Errorf("unlimited hit rate %.3f below bounded %.3f", ru.HitRate(), rb.HitRate())
	}
}

func TestExactExpiryInvalidation(t *testing.T) {
	cfg := quickConfig("lbm")
	cfg.Mechanism = ChargeCache
	cfg.CCInvalidation = core.ExactExpiry
	res := mustRun(t, cfg)
	if res.Mechanism.Hits == 0 {
		t.Error("exact-expiry variant recorded no hits")
	}
}

func TestFixedRCAblationWeakerThanDerived(t *testing.T) {
	base := mustRun(t, quickConfig("lbm"))
	derived := quickConfig("lbm")
	derived.Mechanism = ChargeCache
	rd := mustRun(t, derived)
	fixed := quickConfig("lbm")
	fixed.Mechanism = ChargeCache
	fixed.FixedRC = true
	rf := mustRun(t, fixed)
	spDerived := rd.PerCore[0].IPC / base.PerCore[0].IPC
	spFixed := rf.PerCore[0].IPC / base.PerCore[0].IPC
	if spFixed > spDerived+0.001 {
		t.Errorf("fixed-tRC speedup %.4f exceeds derived-tRC %.4f", spFixed, spDerived)
	}
}

func TestRunTwiceFails(t *testing.T) {
	s, err := New(quickConfig("hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run did not fail")
	}
}

func TestRegionSize(t *testing.T) {
	cases := []struct {
		total uint64
		cores int
		want  uint64
	}{
		{8 << 30, 8, 1 << 30},
		{4 << 30, 1, 4 << 30},
		{8 << 30, 3, 2 << 30},
		{8 << 30, 5, 1 << 30},
	}
	for _, c := range cases {
		if got := regionSize(c.total, c.cores); got != c.want {
			t.Errorf("regionSize(%d,%d) = %d, want %d", c.total, c.cores, got, c.want)
		}
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := quickConfig("mcf")
	cfg.MaxCycles = 10_000 // far too few for 60k instructions
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("saturation not reported")
	}
}

func TestHmmerStaysInLLC(t *testing.T) {
	// hmmer's footprint fits in the 4MB LLC: after warm-up it generates
	// almost no DRAM traffic (the paper's footnote 1).
	cfg := quickConfig("hmmer")
	// One full sweep of hmmer's 2MB footprint is ~32K records of ~250
	// bubbles each; warm up past it so the LLC holds the working set.
	cfg.WarmupInstructions = 9_000_000
	cfg.RunInstructions = 300_000
	res := mustRun(t, cfg)
	missRate := float64(res.LLC.Misses) / float64(res.LLC.Accesses())
	if missRate > 0.05 {
		t.Errorf("hmmer LLC miss rate = %.3f, want ~0", missRate)
	}
}

// TestOtherDRAMStandards exercises the Section 7.2 claim: ChargeCache
// plugs into any DDR-derived standard unchanged and still speeds up a
// high-RLTL workload.
func TestOtherDRAMStandards(t *testing.T) {
	for _, standard := range []string{"ddr3", "lpddr3", "ddr3l"} {
		base := quickConfig("lbm")
		base.Standard = standard
		rb := mustRun(t, base)
		cc := quickConfig("lbm")
		cc.Standard = standard
		cc.Mechanism = ChargeCache
		rc := mustRun(t, cc)
		if rc.PerCore[0].IPC < rb.PerCore[0].IPC*0.999 {
			t.Errorf("%s: ChargeCache slower than baseline (%.4f vs %.4f)",
				standard, rc.PerCore[0].IPC, rb.PerCore[0].IPC)
		}
		if rc.Controller.FastActivations == 0 {
			t.Errorf("%s: no fast activations", standard)
		}
	}
	bad := quickConfig("lbm")
	bad.Standard = "rldram"
	if _, err := New(bad); err == nil {
		t.Error("unknown standard accepted")
	}
}

// TestRowOutcomeAccounting checks that every served request carries
// exactly one row-buffer outcome, up to the requests in flight at the
// edges of the measured window. The bound is derived, not fitted:
//
//   - a request's outcome is counted at the first command issued on its
//     behalf, and it is counted served (ReadsServed/WritesServed) at its
//     column command, which also dequeues it. Both happen while the
//     request sits in the controller's read or write queue; no request
//     leaves a queue any other way.
//   - a request whose two counts fall on the same side of the warm-up
//     reset cancels out. Only two kinds differ: A, outcome before the
//     reset and served after it (counted served only), and B, outcome
//     in the window and still queued at run end (counted outcome only).
//     So outcomes - served = B - A.
//   - every A request was queued at the reset and every B request at
//     run end, so 0 <= A, B <= readQueueCap + writeQueueCap on each
//     channel. Reads awaiting data after their column command add
//     nothing: both counts were taken at that command.
//
// Hence |outcomes - served| <= channels * (readQueueCap + writeQueueCap).
func TestRowOutcomeAccounting(t *testing.T) {
	mixes := workload.EightCoreMixes(3, 2)
	cases := []struct {
		name      string
		workloads []string
		mech      MechanismKind
	}{
		{"lbm-baseline", []string{"lbm"}, Baseline},
		{"lbm-chargecache", []string{"lbm"}, ChargeCache},
		{"mcf-baseline", []string{"mcf"}, Baseline},
		{"STREAMcopy-chargecache", []string{"STREAMcopy"}, ChargeCache},
		{"mix3-0-chargecache", mixes[0], ChargeCache},
		{"mix3-1-baseline", mixes[1], Baseline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.workloads...)
			cfg.Mechanism = tc.mech
			cfg.WarmupInstructions = 50_000
			cfg.RunInstructions = 100_000
			if len(tc.workloads) > 1 {
				cfg.WarmupInstructions = 20_000
				cfg.RunInstructions = 20_000
			}
			c := mustRun(t, cfg).Controller
			outcomes := int64(c.RowHits + c.RowMisses + c.RowConflicts)
			served := int64(c.ReadsServed + c.WritesServed)
			if served == 0 {
				t.Fatal("no request served in the measured window")
			}
			diff := outcomes - served
			if diff < 0 {
				diff = -diff
			}
			if bound := int64(cfg.Channels * (readQueueCap + writeQueueCap)); diff > bound {
				t.Errorf("row outcomes %d vs requests served %d: residue %d exceeds the in-flight bound %d",
					outcomes, served, diff, bound)
			}
		})
	}
}
