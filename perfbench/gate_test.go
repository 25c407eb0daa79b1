package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sim"
)

// smallRun simulates a short single-core config of the given mechanism.
func smallRun(t *testing.T, m sim.MechanismKind) (sim.Config, sim.Result) {
	t.Helper()
	cfg := sim.DefaultConfig("mcf")
	cfg.Mechanism = m
	cfg.WarmupInstructions = 50_000
	cfg.RunInstructions = 50_000
	res, _, err := runInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

func TestGateAcceptsEveryMechanism(t *testing.T) {
	for _, m := range sim.MechanismKinds() {
		cfg, res := smallRun(t, m)
		if bad := checkResult(cfg, res); len(bad) != 0 {
			t.Errorf("%v: valid result rejected: %v", m, bad)
		}
	}
}

// TestGateRejects shows the gate is live: each broken result fails.
func TestGateRejects(t *testing.T) {
	cfg, good := smallRun(t, sim.ChargeCache)
	base, baseRes := smallRun(t, sim.Baseline)
	ll, llRes := smallRun(t, sim.LLDRAM)
	cases := []struct {
		name   string
		cfg    sim.Config
		res    sim.Result
		break_ func(*sim.Result)
		want   string
	}{
		{"lookups differ from ACT", cfg, good, func(r *sim.Result) { r.Mechanism.Lookups++ }, "mechanism lookups"},
		{"saturated", cfg, good, func(r *sim.Result) { r.Saturated = true }, "saturated"},
		{"short core", cfg, good, func(r *sim.Result) { r.PerCore[0].Instructions-- }, "retired"},
		{"IPC above 3", cfg, good, func(r *sim.Result) { r.PerCore[0].IPC = 3.5 }, "IPC"},
		{"fast ACT count", cfg, good, func(r *sim.Result) { r.Controller.FastActivations++ }, "fast activations"},
		{"reads", cfg, good, func(r *sim.Result) { r.Counts.RD++ }, "RD commands"},
		{"writes", cfg, good, func(r *sim.Result) { r.Controller.WritesServed++ }, "WR commands"},
		{"ChargeCache hits", cfg, good, func(r *sim.Result) { r.Mechanism.Hits++ }, "ChargeCache hits"},
		{"Baseline fast ACT", base, baseRes, func(r *sim.Result) { r.Counts.FastACT++; r.Controller.FastActivations++ }, "Baseline issued"},
		{"LL-DRAM slow ACT", ll, llRes, func(r *sim.Result) { r.Counts.FastACT--; r.Controller.FastActivations-- }, "LL-DRAM issued"},
		{"no energy", cfg, good, func(r *sim.Result) { r.Energy = sim.Result{}.Energy }, "energy"},
	}
	for _, c := range cases {
		res := c.res
		res.PerCore = append([]sim.CoreResult(nil), c.res.PerCore...)
		c.break_(&res)
		bad := checkResult(c.cfg, res)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "; "), c.want) {
			t.Errorf("%s: gate returned %v, want a violation mentioning %q", c.name, bad, c.want)
		}
	}
}

// TestGateRejectsDaemonResultDifferingInOneField runs a config on a
// loopback daemon and checks the gate accepts its result, then rejects
// it with a single field changed.
func TestGateRejectsDaemonResultDifferingInOneField(t *testing.T) {
	d, err := cachedDaemon(t.TempDir(), server.ManagerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	cfg, ref := smallRun(t, sim.ChargeCache)
	cli := client.New(d.url)
	cli.PollInterval = 5 * time.Millisecond
	st, err := cli.RunJob(context.Background(), server.JobSpec{Config: cfg})
	if err != nil || st.Result == nil {
		t.Fatalf("RunJob: %v (%+v)", err, st)
	}
	r := newReport()
	r.gate("daemon", cfg, *st.Result, &ref, true)
	if len(r.violations) != 0 {
		t.Fatalf("identical daemon result rejected: %v", r.violations)
	}
	changed := *st.Result
	changed.LLC.Hits++
	r.gate("daemon", cfg, changed, &ref, true)
	if len(r.violations) != 1 || !strings.Contains(r.violations[0], "differs from the reference") {
		t.Fatalf("result with one changed field: violations %v", r.violations)
	}
}

func TestCanonicalStripsHostTimedFields(t *testing.T) {
	cfg := sim.DefaultConfig("lbm")
	cfg.WarmupInstructions = 30_000
	cfg.RunInstructions = 30_000
	a, b := cfg, cfg
	a.Analysis = &analysis.Config{Enabled: true, PhaseProfile: true}
	b.Analysis = &analysis.Config{Enabled: true, PhaseProfile: true}
	ra, _, err := runInProcess(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := runInProcess(b)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := sameResult(ra, rb, true); !ok {
		t.Fatalf("two profiled runs of one config differ: %s", diff)
	}
	plain, _, err := runInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := sameResult(ra, plain, true); ok {
		t.Fatalf("an analysis report should count in the with-analysis comparison")
	}
	if ok, diff := sameResult(ra, plain, false); !ok {
		t.Fatalf("analysis on and off differ beyond the report: %s", diff)
	}
}

func TestReportRequiresEveryEndToEndMetric(t *testing.T) {
	r := newReport()
	r.attempted = 1
	for _, d := range endToEnd[1:] {
		r.set(d.Name, 1)
	}
	var out strings.Builder
	r.write(&out, false)
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("a missing end-to-end metric must make the run incorrect: %s", out.String())
	}
}
