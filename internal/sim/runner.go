package sim

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
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

	s.syncMechanisms()
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
// every Result bit — is identical. Each core runs on its own lazy clock
// (see cpu.Core.Wake): an executed cycle steps only the cores due on
// it, and the others apply their skipped cycles in bulk when a Step, a
// load data return or the final Settle touches them.
func (s *System) runUntilEvents(target uint64, capCycles int64) ([]int64, bool) {
	n := len(s.cores)
	doneAt := make([]int64, n)
	remaining := n
	start := s.nowCPU
	ratio := int64(s.cfg.ClockRatio)
	for _, c := range s.cores {
		c.Wake(&s.nowCPU, target)
	}
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
		// Ascending core index is the stepper's order at the LLC. Only
		// a Tick retires across target (SkipBudget clamps the gaps).
		for i, c := range s.cores {
			if c.Due() != now {
				continue
			}
			c.Step()
			if doneAt[i] == 0 && c.Retired() >= target {
				doneAt[i] = now + 1 - start
				remaining--
			}
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
				}
			}
		}
		s.nowCPU = now + 1
		if remaining == 0 {
			break
		}
		s.nowCPU = s.nextCycle(capCycles)
	}
	for _, c := range s.cores {
		c.Settle(s.nowCPU)
	}
	saturated := remaining > 0
	for i := range doneAt {
		if doneAt[i] == 0 {
			doneAt[i] = s.nowCPU - start
		}
	}
	return doneAt, saturated
}

// nextCycle returns the next cycle the event engine must execute,
// at or after s.nowCPU: the earliest core due cycle, LLC delivery or
// controller event (aligned to the CPU:bus clock ratio), bounded by the
// cycle cap.
func (s *System) nextCycle(capCycles int64) int64 {
	now := s.nowCPU
	next := capCycles
	for _, c := range s.cores {
		if d := c.Due(); d < next {
			next = d
		}
	}
	if next <= now {
		return now
	}
	// Both estimates are cheap to read live: the LLC's is O(1) and the
	// controller caches its own scan until its state changes.
	if e := s.llc.NextEvent(); e < next {
		next = e
	}
	ratio := int64(s.cfg.ClockRatio)
	for _, ctrl := range s.ctrls {
		ev := ctrl.NextEvent()
		if ev >= dram.NoEvent {
			continue
		}
		w := int64(ev) * ratio
		if w < now {
			// Overdue relative to a stale controller clock: the next
			// bus-aligned cycle is the earliest it can be serviced.
			w = (now + ratio - 1) / ratio * ratio
		}
		if w < next {
			next = w
		}
	}
	if next < now {
		return now
	}
	return next
}

// syncMechanisms brings every mechanism's lazily kept time (ChargeCache's
// IIC/EC walk) up to the controllers' last bus-aligned cycle before the
// master clock, the last one the reference stepper ticked, so the
// window-edge stats do not depend on which ticks the event engine
// skipped. Mechanism.Tick is gap-exact, so under the stepper this is a
// no-op.
func (s *System) syncMechanisms() {
	if s.nowCPU == 0 {
		return
	}
	bus := dram.Cycle((s.nowCPU - 1) / int64(s.cfg.ClockRatio))
	for _, ctrl := range s.ctrls {
		ctrl.Mechanism().Tick(bus)
	}
}

// resetAfterWarmup clears all statistics while keeping architectural
// state (caches, HCRAC contents, open rows).
func (s *System) resetAfterWarmup() {
	s.syncMechanisms()
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
