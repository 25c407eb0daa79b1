package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// fuzzBudget caps the instructions one fuzz input simulates, summed
// over cores and over warm-up and measured window. On a 2-vCPU Xeon
// host the worst case, eight STREAMcopy cores, takes about 120 ms
// through both engines with the protocol checkers attached; mixed
// inputs take 10-50 ms.
const fuzzBudget = 80_000

// fuzzConfig decodes arbitrary bytes into a bounded config. Every input
// decodes (missing bytes read as zero):
//
//	[0]          core count - 1 (mod 8)
//	[1..cores]   one workload.Names() index per core
//	then         mechanism, seed (2 bytes), channels (1/2/4), row
//	             policy, invalidation mode (IIC/EC, exact expiry,
//	             unlimited table, IIC/EC with a 0.05 ms caching
//	             duration), warm-up and run budgets (a byte each,
//	             scaled to the per-core share of fuzzBudget)
func fuzzConfig(data []byte) Config {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	names := workload.Names()
	wl := make([]string, 1+next()%8)
	for i := range wl {
		wl[i] = names[next()%len(names)]
	}
	cfg := DefaultConfig(wl...)
	kinds := MechanismKinds()
	cfg.Mechanism = kinds[next()%len(kinds)]
	cfg.Seed = uint64(next()<<8 | next())
	cfg.Channels = 1 << (next() % 3)
	cfg.RowPolicy = []memctrl.RowPolicy{memctrl.OpenRow, memctrl.ClosedRow}[next()%2]
	switch next() % 4 {
	case 1:
		cfg.CCInvalidation = core.ExactExpiry
	case 2:
		cfg.CCUnlimited = true
	case 3:
		cfg.CCDurationMs = 0.05
	}
	share := uint64(fuzzBudget / 2 / len(wl))
	cfg.WarmupInstructions = uint64(next()) * share / 255
	cfg.RunInstructions = 1_000 + uint64(next())*(share-1_000)/255
	return cfg
}

// fuzzInput encodes a config shape in fuzzConfig's layout, so seed
// corpus entries read as configs rather than bytes.
func fuzzInput(t testing.TB, workloads []string, mech MechanismKind, seed uint16, channels int, policy memctrl.RowPolicy, inval, warmup, run byte) []byte {
	index := map[string]byte{}
	for i, n := range workload.Names() {
		index[n] = byte(i)
	}
	mechIndex := map[MechanismKind]byte{}
	for i, k := range MechanismKinds() {
		mechIndex[k] = byte(i)
	}
	b := []byte{byte(len(workloads) - 1)}
	for _, w := range workloads {
		i, ok := index[w]
		if !ok {
			t.Fatalf("unknown workload %q", w)
		}
		b = append(b, i)
	}
	ch := map[int]byte{1: 0, 2: 1, 4: 2}[channels]
	return append(b, mechIndex[mech], byte(seed>>8), byte(seed), ch, byte(policy), inval, warmup, run)
}

// runChecked runs cfg on one engine with an independent protocol
// checker on every channel, failing on any command a real device would
// reject.
func runChecked(t *testing.T, cfg Config, stepper bool) Result {
	t.Helper()
	cfg.Stepper = stepper
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkers := make([]*dram.Checker, len(s.ctrls))
	for i, ctrl := range s.ctrls {
		checkers[i] = dram.NewChecker(s.spec)
		ctrl.Channel().SetTracer(checkers[i].Observe)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for ch, chk := range checkers {
		if v := chk.Violations(); len(v) != 0 {
			t.Fatalf("stepper=%v channel %d: %d protocol violations, first: %s", stepper, ch, len(v), v[0])
		}
	}
	return res
}

// FuzzEngines is the coverage-guided form of the differential suite:
// each input is a bounded config whose event-driven and stepper Results
// must match in canonical JSON, with both engines' command streams
// replayed through dram.Checker. The seeds are the shapes of the
// long-horizon reproducers (TestDifferentialLongHorizon keeps them at
// full length) at fuzz budgets. Run it with
//
//	go test -fuzz=FuzzEngines -run '^$' ./internal/sim
//
// and commit any crasher it writes under testdata/fuzz as a permanent
// regression.
func FuzzEngines(f *testing.F) {
	const full = 255
	f.Add(fuzzInput(f, []string{"bzip2"}, Baseline, 1, 1, memctrl.OpenRow, 0, 0, full))
	f.Add(fuzzInput(f, []string{"libquantum"}, ChargeCache, 1, 1, memctrl.OpenRow, 0, full, full))
	f.Add(fuzzInput(f, workload.EightCoreMixes(42, 4)[0], Baseline, 1, 2, memctrl.ClosedRow, 0, full, full/2))
	f.Add(fuzzInput(f, workload.EightCoreMixes(7, 16)[11], ChargeCache, 7, 2, memctrl.ClosedRow, 0, full, full/2))
	f.Add(fuzzInput(f, hmmerEarlyMix, ChargeCache, 5, 2, memctrl.ClosedRow, 0, full, full/2))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		assertSameResult(t, runChecked(t, cfg, false), runChecked(t, cfg, true))
	})
}
