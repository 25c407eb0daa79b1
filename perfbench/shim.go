package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
)

// shimSamplePeriod times one call in this many per operation, like the
// simulator's own phase profiler: reading the clock on every Tick would
// cost more than the Tick.
const shimSamplePeriod = 64

// mechOp indexes the mechanism operations the shim counts and times.
type mechOp int

const (
	opActivate mechOp = iota
	opPrecharge
	opTick
	numMechOps
)

// mechTrace accumulates one config's mechanism calls across its
// channels. It is not safe for concurrent use; a config runs on one
// goroutine.
type mechTrace struct {
	calls   [numMechOps]uint64
	samples [numMechOps]uint64
	ns      [numMechOps]int64
	// measuredFrom is when the simulator reset the mechanism's stats
	// at the end of warm-up: the start of the measured window, which
	// the phase profile also covers.
	measuredFrom time.Time
}

// estimatedNs extrapolates an operation's full cost from its samples.
func (t *mechTrace) estimatedNs(op mechOp) float64 {
	return ratio(float64(t.ns[op]), float64(t.samples[op])) * float64(t.calls[op])
}

// ccShim wraps a real ChargeCache, forwarding every call unchanged and
// counting and timing OnActivate, OnPrecharge and Tick. Its results are
// identical to Mechanism: ChargeCache (shim_test.go checks it).
type ccShim struct {
	cc *core.ChargeCache
	t  *mechTrace
}

func (s *ccShim) begin(op mechOp) (time.Time, bool) {
	s.t.calls[op]++
	if s.t.calls[op]%shimSamplePeriod != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (s *ccShim) end(op mechOp, start time.Time) {
	s.t.ns[op] += int64(time.Since(start))
	s.t.samples[op]++
}

func (s *ccShim) Name() string { return s.cc.Name() }

func (s *ccShim) OnActivate(key core.RowKey, now, refreshAge dram.Cycle) dram.TimingClass {
	start, timed := s.begin(opActivate)
	class := s.cc.OnActivate(key, now, refreshAge)
	if timed {
		s.end(opActivate, start)
	}
	return class
}

func (s *ccShim) OnPrecharge(key core.RowKey, now dram.Cycle) {
	start, timed := s.begin(opPrecharge)
	s.cc.OnPrecharge(key, now)
	if timed {
		s.end(opPrecharge, start)
	}
}

func (s *ccShim) Tick(now dram.Cycle) {
	start, timed := s.begin(opTick)
	s.cc.Tick(now)
	if timed {
		s.end(opTick, start)
	}
}

func (s *ccShim) Stats() core.Stats { return s.cc.Stats() }

// ResetStats also restarts the shim's counters, so they cover the same
// measured window as the simulator's statistics and phase profile.
func (s *ccShim) ResetStats() {
	s.cc.ResetStats()
	if s.t.measuredFrom.IsZero() {
		*s.t = mechTrace{measuredFrom: time.Now()}
	}
}

// withShim returns cfg running its ChargeCache through a counting shim
// that reports into t, built exactly as the simulator builds
// Mechanism: ChargeCache.
func withShim(cfg sim.Config, t *mechTrace) sim.Config {
	cfg.Mechanism = sim.Custom
	cores := len(cfg.Workloads)
	cfg.CustomMechanism = func(_ int, spec dram.Spec, fast, def dram.TimingClass) (core.Mechanism, error) {
		cc, err := core.NewChargeCache(core.ChargeCacheConfig{
			Entries:      cfg.CCEntriesPerCore * cores,
			Assoc:        cfg.CCAssoc,
			Duration:     spec.MillisecondsToCycles(cfg.CCDurationMs),
			Fast:         fast,
			Default:      def,
			Unlimited:    cfg.CCUnlimited,
			Invalidation: cfg.CCInvalidation,
		})
		if err != nil {
			return nil, err
		}
		return &ccShim{cc: cc, t: t}, nil
	}
	return cfg
}
