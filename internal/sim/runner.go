package sim

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/power"
	"repro/internal/stats"
)

// CoreResult is one core's measured performance.
type CoreResult struct {
	Workload     string
	Instructions uint64
	Cycles       uint64 // CPU cycles until the instruction target
	IPC          float64
}

// RLTLResult summarizes the Figures 3-4 measurements.
type RLTLResult struct {
	IntervalsMs     []float64
	Fractions       []float64 // t-RLTL per interval
	RefreshFraction float64   // activations within 8 ms of refresh
	Activations     uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	Config Config

	PerCore []CoreResult

	// CPUCycles is the measured-window length (until the last core hit
	// its instruction target).
	CPUCycles uint64

	Mechanism  core.Stats    // aggregated over channels
	Controller memctrl.Stats // aggregated over channels
	LLC        cache.Stats
	Counts     dram.CommandCounts // aggregated over channels
	Energy     power.DRAMEnergy   // aggregated over channels

	RLTL *RLTLResult

	// Analysis carries the perf-analyzer timelines when Config.Analysis
	// enabled them (measured window only; warm-up is discarded).
	Analysis *analysis.Report `json:",omitempty"`

	// Saturated reports the run hit MaxCycles before every core reached
	// its target (results then cover a truncated window).
	Saturated bool
}

// RMPKC returns row misses (activations) per kilo-CPU-cycle over the
// measured window (the Figure 7 intensity metric).
func (r Result) RMPKC() float64 {
	return stats.RMPKC(r.Controller.Activations, r.CPUCycles)
}

// IPCs returns the per-core IPC vector.
func (r Result) IPCs() []float64 {
	out := make([]float64, len(r.PerCore))
	for i, c := range r.PerCore {
		out[i] = c.IPC
	}
	return out
}

// HitRate returns the mechanism hit rate (HCRAC hit rate for
// ChargeCache).
func (r Result) HitRate() float64 { return r.Mechanism.HitRate() }

// Run executes warm-up and the measured window and returns the results.
func (s *System) Run() (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("sim: System.Run called twice")
	}
	s.ran = true

	if s.cfg.WarmupInstructions > 0 {
		warmCap := s.cycleCap(s.cfg.WarmupInstructions)
		s.runUntil(s.cfg.WarmupInstructions, warmCap)
		s.resetAfterWarmup()
	}

	capCycles := s.cycleCap(s.cfg.RunInstructions)
	if s.cfg.MaxCycles > 0 {
		capCycles = int64(s.cfg.MaxCycles)
	}
	start := s.nowCPU
	doneAt, saturated := s.runUntil(s.cfg.RunInstructions, capCycles)

	res := Result{
		Config:    s.cfg,
		CPUCycles: uint64(s.nowCPU - start),
		Saturated: saturated,
	}
	for i, c := range s.cores {
		cycles := doneAt[i]
		instr := c.Retired()
		if instr > s.cfg.RunInstructions {
			instr = s.cfg.RunInstructions
		}
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(instr) / float64(cycles)
		}
		res.PerCore = append(res.PerCore, CoreResult{
			Workload:     s.cfg.Workloads[i],
			Instructions: instr,
			Cycles:       uint64(cycles),
			IPC:          ipc,
		})
	}

	busNow := s.nowCPU / int64(s.cfg.ClockRatio)
	currents := power.DDR3Currents()
	for _, ctrl := range s.ctrls {
		cs := ctrl.Stats()
		res.Controller.ReadsServed += cs.ReadsServed
		res.Controller.WritesServed += cs.WritesServed
		res.Controller.ReadLatencySum += cs.ReadLatencySum
		for b := range cs.ReadLatencyHist {
			res.Controller.ReadLatencyHist[b] += cs.ReadLatencyHist[b]
		}
		res.Controller.Activations += cs.Activations
		res.Controller.FastActivations += cs.FastActivations
		res.Controller.RowHits += cs.RowHits
		res.Controller.RowMisses += cs.RowMisses
		res.Controller.RowConflicts += cs.RowConflicts
		res.Controller.Refreshes += cs.Refreshes

		ms := ctrl.Mechanism().Stats()
		res.Mechanism.Lookups += ms.Lookups
		res.Mechanism.Hits += ms.Hits
		res.Mechanism.Inserts += ms.Inserts
		res.Mechanism.Evictions += ms.Evictions
		res.Mechanism.Invalidations += ms.Invalidations

		chDev := ctrl.Channel()
		chDev.SyncAccounting(dram.Cycle(busNow))
		counts := chDev.Counts()
		res.Counts.ACT += counts.ACT
		res.Counts.FastACT += counts.FastACT
		res.Counts.PRE += counts.PRE
		res.Counts.RD += counts.RD
		res.Counts.WR += counts.WR
		res.Counts.REF += counts.REF
		res.Counts.RASCycles += counts.RASCycles

		e, err := power.ComputeDRAMEnergy(s.spec, counts, chDev.Occupancy(), currents)
		if err != nil {
			return Result{}, err
		}
		res.Energy.ActPre += e.ActPre
		res.Energy.Read += e.Read
		res.Energy.Write += e.Write
		res.Energy.Refresh += e.Refresh
		res.Energy.Background += e.Background
	}
	res.LLC = s.llc.Stats()

	if s.collector != nil {
		res.Analysis = s.collector.Report()
	}

	if s.rltl != nil {
		rr := &RLTLResult{
			IntervalsMs:     append([]float64(nil), s.cfg.RLTLIntervalsMs...),
			RefreshFraction: s.rltl.RefreshFraction(),
			Activations:     s.rltl.Activations(),
		}
		for i := range s.cfg.RLTLIntervalsMs {
			rr.Fractions = append(rr.Fractions, s.rltl.Fraction(i))
		}
		res.RLTL = rr
	}
	return res, nil
}

// cycleCap derives a safety cap for an instruction budget: even a fully
// memory-bound core makes progress within ~500 cycles per instruction.
func (s *System) cycleCap(instr uint64) int64 {
	return s.nowCPU + int64(instr)*500 + 50_000_000
}

// runUntil advances the system until every core has retired target
// instructions (since its last reset) or the cycle cap is reached. It
// returns each core's cycle count at its target and whether the cap was
// hit. The work is delegated to one of two engines that produce
// bit-identical results: the event-driven scheduler (default) and the
// cycle-by-cycle reference stepper (Config.Stepper).
func (s *System) runUntil(target uint64, capCycles int64) ([]int64, bool) {
	if s.cfg.Stepper {
		return s.runUntilStepper(target, capCycles)
	}
	return s.runUntilEvents(target, capCycles)
}

// runUntilStepper is the reference execution model: tick every
// component on every CPU cycle (controllers on bus-aligned cycles).
func (s *System) runUntilStepper(target uint64, capCycles int64) ([]int64, bool) {
	n := len(s.cores)
	doneAt := make([]int64, n)
	remaining := n
	start := s.nowCPU
	ratio := int64(s.cfg.ClockRatio)
	for remaining > 0 && s.nowCPU < capCycles {
		now := s.nowCPU
		s.execCycles++
		for _, c := range s.cores {
			c.Tick()
		}
		s.llc.Tick(now)
		if now%ratio == 0 {
			bus := dram.Cycle(now / ratio)
			for _, ctrl := range s.ctrls {
				ctrl.Tick(bus)
			}
		}
		s.nowCPU++
		for i, c := range s.cores {
			if doneAt[i] == 0 && c.Retired() >= target {
				doneAt[i] = s.nowCPU - start
				remaining--
			}
		}
	}
	saturated := remaining > 0
	for i := range doneAt {
		if doneAt[i] == 0 {
			doneAt[i] = s.nowCPU - start
		}
	}
	return doneAt, saturated
}

// runUntilEvents is the event-driven engine: it executes exactly the
// cycles in which some component can change state and jumps the master
// clock across the provably idle stretches in between. Executed cycles
// run the same component sequence as the stepper, so the interleaving
// of core issue, LLC delivery and controller scheduling — and with it
// every Result bit — is identical; skipped cycles are accounted into
// the cores' cycle/stall counters in bulk (see cpu.Core.AdvanceIdle).
func (s *System) runUntilEvents(target uint64, capCycles int64) ([]int64, bool) {
	if s.memCtrlWake == nil {
		s.memCtrlWake = make([]int64, len(s.ctrls))
	}
	s.memDirty = true
	if len(s.cores) == 1 && len(s.ctrls) == 1 {
		return s.runUntilEventsSingle(target, capCycles)
	}
	n := len(s.cores)
	doneAt := make([]int64, n)
	remaining := n
	start := s.nowCPU
	ratio := int64(s.cfg.ClockRatio)
	blocked := make([]bool, n)
	for remaining > 0 && s.nowCPU < capCycles {
		now := s.nowCPU
		s.execCycles++
		// Keep the controllers' arrival clock where the stepper would
		// have it: the bus cycle of the last bus-aligned tick before
		// this cycle's core phase.
		if now > 0 {
			bus := dram.Cycle((now - 1) / ratio)
			for _, ctrl := range s.ctrls {
				ctrl.SyncClock(bus)
			}
		}
		for _, c := range s.cores {
			c.Tick()
		}
		// Component ticks are gated on their own event estimates: a tick
		// strictly before a component's NextEvent is a no-op by the
		// estimate's contract (the reference stepper still ticks every
		// cycle), so executed cycles driven by one component skip the
		// others' scheduling work entirely.
		if s.llc.NextEvent() <= now {
			s.llc.Tick(now)
		}
		if now%ratio == 0 {
			bus := dram.Cycle(now / ratio)
			for _, ctrl := range s.ctrls {
				// The stepper has ticked every earlier controller at
				// bus by now, so a writeback a completion here sends
				// to one of them must be stamped bus; later ones keep
				// the previous bus cycle until their own turn.
				ctrl.SyncClock(bus)
				if ctrl.NeedsTick(bus) {
					ctrl.Tick(bus)
					s.memDirty = true
				}
			}
		}
		s.nowCPU = now + 1
		for i, c := range s.cores {
			if doneAt[i] == 0 && c.Retired() >= target {
				doneAt[i] = s.nowCPU - start
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		s.skipAhead(target, capCycles, blocked)
	}
	saturated := remaining > 0
	for i := range doneAt {
		if doneAt[i] == 0 {
			doneAt[i] = s.nowCPU - start
		}
	}
	return doneAt, saturated
}

// runUntilEventsSingle is runUntilEvents specialized for one core and
// one controller — every single-core configuration, including the whole
// benchmark campaign. Identical cycle-for-cycle behaviour; it only
// strips the multi-component loops and scratch slices off the hot path.
// The fork stays because it pays: folding it into runUntilEvents and
// skipAhead ran the perfbench fig7-single workload (seed 1, 8 s runs,
// 8 interleaved pairs on a 2-vCPU host) at 24.8 configs/s against 27.1
// with the fork, which won all 8 pairs.
func (s *System) runUntilEventsSingle(target uint64, capCycles int64) ([]int64, bool) {
	core := s.cores[0]
	ctrl := s.ctrls[0]
	start := s.nowCPU
	ratio := int64(s.cfg.ClockRatio)
	doneCPU := int64(0)
	for s.nowCPU < capCycles {
		now := s.nowCPU
		s.execCycles++
		if now > 0 {
			ctrl.SyncClock(dram.Cycle((now - 1) / ratio))
		}
		core.Tick()
		if s.llc.NextEvent() <= now {
			s.llc.Tick(now)
		}
		if now%ratio == 0 {
			bus := dram.Cycle(now / ratio)
			if ctrl.NeedsTick(bus) {
				ctrl.Tick(bus)
				s.memDirty = true
			}
		}
		s.nowCPU = now + 1
		if core.Retired() >= target {
			doneCPU = s.nowCPU - start
			break
		}
		s.skipAheadSingle(target, capCycles, core, ctrl, ratio)
	}
	saturated := doneCPU == 0
	if saturated {
		doneCPU = s.nowCPU - start
	}
	return []int64{doneCPU}, saturated
}

// skipAheadSingle is skipAhead for the one-core, one-controller shape.
func (s *System) skipAheadSingle(target uint64, capCycles int64, core *cpu.Core, ctrl *memctrl.Controller, ratio int64) {
	now := s.nowCPU
	bulk := capCycles - now
	if bulk <= 0 {
		return
	}
	if stamp := s.llc.Stamp(); s.memDirty || stamp != s.memStamp {
		s.memStamp = stamp
		s.memDirty = false
		s.memLLCWake = s.llc.NextEvent()
		s.memCtrlWake[0] = int64(ctrl.NextEvent())
	}
	if e := s.memLLCWake; e-now < bulk {
		bulk = e - now
		if bulk <= 0 {
			return
		}
	}
	if ev := s.memCtrlWake[0]; ev < int64(dram.NoEvent) {
		w := ev * ratio
		if w < now {
			w = (now + ratio - 1) / ratio * ratio
		}
		if w-now < bulk {
			bulk = w - now
			if bulk <= 0 {
				return
			}
		}
	}
	if bulk == 1 {
		return
	}
	isBlocked, pure := core.SkipBudget(target, bulk)
	if !isBlocked {
		if pure <= 0 {
			return
		}
		if pure < bulk {
			bulk = pure
		}
		core.RunAhead(bulk)
	} else {
		core.AdvanceIdle(bulk)
	}
	s.nowCPU = now + bulk
}

// skipAhead jumps s.nowCPU past cycles that are provably no-ops for
// every component: the next executed cycle is bounded by the earliest
// LLC delivery, the earliest controller event (aligned to the CPU:bus
// clock ratio), the cycle cap, and each core's own skip budget. Cores
// consume the jump either as accounted idle time (blocked on memory)
// or as bulk bubble flow (RunAhead); both are bit-identical to ticking
// them cycle by cycle.
func (s *System) skipAhead(target uint64, capCycles int64, blocked []bool) {
	now := s.nowCPU // first not-yet-executed cycle
	bulk := capCycles - now
	if bulk <= 0 {
		return
	}
	// Timed horizons first: they cap how far the cores' budget checks
	// need to look. The component estimates move only when the LLC was
	// accessed or ticked (its stamp) or a controller ticked (memDirty) —
	// enqueues always ride an LLC access — so executed cycles without
	// memory activity reuse the horizon snapshot wholesale. A snapshot
	// taken while a controller had fresh arrivals can only be earlier
	// than the live estimate, which at worst wakes a no-op cycle.
	if stamp := s.llc.Stamp(); s.memDirty || stamp != s.memStamp {
		s.memStamp = stamp
		s.memDirty = false
		s.memLLCWake = s.llc.NextEvent()
		for i, ctrl := range s.ctrls {
			s.memCtrlWake[i] = int64(ctrl.NextEvent())
		}
	}
	if e := s.memLLCWake; e-now < bulk {
		bulk = e - now
		if bulk <= 0 {
			return
		}
	}
	ratio := int64(s.cfg.ClockRatio)
	for _, ev := range s.memCtrlWake {
		if ev >= int64(dram.NoEvent) {
			continue
		}
		w := ev * ratio
		if w < now {
			// Overdue relative to a stale controller clock: the next
			// bus-aligned cycle is the earliest it can be serviced.
			w = (now + ratio - 1) / ratio * ratio
		}
		if w-now < bulk {
			bulk = w - now
			if bulk <= 0 {
				return
			}
		}
	}
	if bulk == 1 {
		// A one-cycle jump saves nothing: executing the cycle costs less
		// than the per-core budget queries and bulk-advance calls, and
		// executing a skippable cycle is always bit-identical (the skip
		// is an optimization, never a requirement).
		return
	}
	if len(s.cores) == 1 {
		c := s.cores[0]
		isBlocked, pure := c.SkipBudget(target, bulk)
		if !isBlocked {
			if pure <= 0 {
				return
			}
			if pure < bulk {
				bulk = pure
			}
			c.RunAhead(bulk)
		} else {
			c.AdvanceIdle(bulk)
		}
		s.nowCPU = now + bulk
		return
	}
	for i, c := range s.cores {
		isBlocked, pure := c.SkipBudget(target, bulk)
		blocked[i] = isBlocked
		if !isBlocked && pure < bulk {
			bulk = pure
			if bulk <= 0 {
				return
			}
		}
	}
	for i, c := range s.cores {
		if blocked[i] {
			c.AdvanceIdle(bulk)
		} else {
			c.RunAhead(bulk)
		}
	}
	s.nowCPU = now + bulk
}

// resetAfterWarmup clears all statistics while keeping architectural
// state (caches, HCRAC contents, open rows).
func (s *System) resetAfterWarmup() {
	for _, c := range s.cores {
		c.ResetStats()
	}
	s.llc.ResetStats()
	busNow := dram.Cycle(s.nowCPU / int64(s.cfg.ClockRatio))
	for _, ctrl := range s.ctrls {
		ctrl.ResetStats()
		ctrl.Mechanism().ResetStats()
		ctrl.Channel().ResetAccounting(busNow)
	}
	if s.rltl != nil {
		s.rltl.Reset()
	}
	if s.collector != nil {
		s.collector.Reset()
	}
}
