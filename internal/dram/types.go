// Package dram implements a cycle-accurate DDR3-style DRAM device timing
// model: geometry, timing parameters, per-bank state machines, and the
// rank/channel-level constraints (tRRD, tFAW, tCCD, tWTR, data-bus
// occupancy, refresh) that govern when each command may legally issue.
//
// The model corresponds to the DRAM substrate used by the ChargeCache
// paper (Ramulator's DDR3 model, HPCA 2016, Table 1). Time is measured in
// DRAM bus cycles (tCK = 1.25 ns for DDR3-1600). The memory controller
// (package memctrl) drives this model by asking CanIssue and then Issue
// for concrete commands.
//
// The one deliberate extension over a stock DDR3 model is that every ACT
// carries a TimingClass: the pair (tRCD, tRAS) to apply to that
// activation. ChargeCache, NUAT and LL-DRAM all work by selecting a
// lowered TimingClass for activations of highly-charged rows; the rest of
// the protocol timing is identical for every class.
package dram

import "fmt"

// Cycle is a point in time or a duration, measured in DRAM bus cycles.
type Cycle int64

// Geometry describes the physical organization of one memory system.
type Geometry struct {
	Channels int // independent channels (each with its own bus)
	Ranks    int // ranks per channel
	Banks    int // banks per rank
	Rows     int // rows per bank
	Columns  int // cache lines per row (row buffer bytes / line bytes)

	LineBytes int // bytes per column access (one cache line)
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("dram: geometry %s must be positive, got %d", name, v)
		}
		if v&(v-1) != 0 {
			return fmt.Errorf("dram: geometry %s must be a power of two, got %d", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"Ranks", g.Ranks},
		{"Banks", g.Banks},
		{"Rows", g.Rows},
		{"Columns", g.Columns},
		{"LineBytes", g.LineBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// RowBufferBytes returns the size of one row buffer.
func (g Geometry) RowBufferBytes() int { return g.Columns * g.LineBytes }

// TotalBytes returns the capacity of the whole memory system.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.Banks) *
		uint64(g.Rows) * uint64(g.Columns) * uint64(g.LineBytes)
}

// BanksPerChannel returns the number of banks visible to one channel's
// controller (ranks x banks).
func (g Geometry) BanksPerChannel() int { return g.Ranks * g.Banks }

// Timing holds the DDR3 timing parameters, in bus cycles.
//
// The names follow the JEDEC / Micron datasheet convention without the
// lowercase t prefix (RCD is tRCD and so on).
type Timing struct {
	RCD int // ACT to internal RD/WR delay
	RAS int // ACT to PRE delay
	RP  int // PRE to ACT delay
	RC  int // ACT to ACT delay, same bank (usually RAS+RP)

	CL  int // RD to first data
	CWL int // WR to first data
	BL  int // burst length, in bus cycles of data transfer (BL8 = 4)

	CCD int // column command to column command, same rank
	RRD int // ACT to ACT, different banks of same rank
	FAW int // four-activate window, per rank

	RTP int // RD to PRE, same bank
	WR  int // write recovery: end of write data to PRE, same bank
	WTR int // end of write data to RD, same rank
	RTW int // RD to WR command spacing, same rank (derived bus turnaround)

	RTRS int // rank-to-rank data bus switch penalty

	RFC  int // refresh cycle time
	REFI int // average periodic refresh interval

	// RetentionWindow is the worst-case time a cell must retain data
	// between refreshes (64 ms for DDR3), in bus cycles. The refresh
	// engine walks all rows once per window; the circuit model uses it as
	// the worst-case decay duration that baseline tRCD/tRAS must cover.
	RetentionWindow Cycle

	// RCFromClass, when true, derives the same-bank ACT-to-ACT window of
	// each activation from its timing class (class tRAS + tRP, capped at
	// the spec tRC): tRC is restore-bounded, so an activation of a
	// highly-charged row that restores early also permits the next
	// activation early. When false, the spec tRC applies to every class
	// (the conservative reading; kept as an ablation).
	RCFromClass bool
}

// Validate reports whether the timing parameters are usable.
func (t Timing) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"RCD", t.RCD}, {"RAS", t.RAS}, {"RP", t.RP}, {"RC", t.RC},
		{"CL", t.CL}, {"CWL", t.CWL}, {"BL", t.BL},
		{"CCD", t.CCD}, {"RRD", t.RRD}, {"FAW", t.FAW},
		{"RTP", t.RTP}, {"WR", t.WR}, {"WTR", t.WTR}, {"RTW", t.RTW},
		{"RFC", t.RFC}, {"REFI", t.REFI},
	} {
		if f.v <= 0 {
			return fmt.Errorf("dram: timing %s must be positive, got %d", f.name, f.v)
		}
	}
	if t.RTRS < 0 {
		return fmt.Errorf("dram: timing RTRS must be non-negative, got %d", t.RTRS)
	}
	if t.RC < t.RAS+t.RP {
		return fmt.Errorf("dram: tRC (%d) must be >= tRAS+tRP (%d)", t.RC, t.RAS+t.RP)
	}
	if t.RetentionWindow <= 0 {
		return fmt.Errorf("dram: RetentionWindow must be positive, got %d", t.RetentionWindow)
	}
	return nil
}

// TimingClass is the pair of activation timings applied to a single ACT
// command. The baseline class uses the spec tRCD/tRAS; mechanisms such as
// ChargeCache substitute a lowered class for highly-charged rows.
type TimingClass struct {
	RCD int
	RAS int
}

// DefaultClass returns the specification timing class.
func (t Timing) DefaultClass() TimingClass { return TimingClass{RCD: t.RCD, RAS: t.RAS} }

// Lowers reports whether c shortens tRCD or tRAS below def: the one
// definition of a lowered (fast) activation.
func (c TimingClass) Lowers(def TimingClass) bool { return c.RCD < def.RCD || c.RAS < def.RAS }

// Spec bundles geometry and timing with the clock.
type Spec struct {
	Geometry Geometry
	Timing   Timing

	// BusMHz is the bus clock frequency (data rate is 2x). tCK in
	// nanoseconds is 1000/BusMHz.
	BusMHz int
}

// Validate checks the whole spec.
func (s Spec) Validate() error {
	if err := s.Geometry.Validate(); err != nil {
		return err
	}
	if err := s.Timing.Validate(); err != nil {
		return err
	}
	if s.BusMHz <= 0 {
		return fmt.Errorf("dram: BusMHz must be positive, got %d", s.BusMHz)
	}
	return nil
}

// CyclesFromNanos converts a duration in nanoseconds to bus cycles,
// rounding up (timing parameters are always conservative).
func (s Spec) CyclesFromNanos(ns float64) int {
	tck := 1000.0 / float64(s.BusMHz)
	n := int(ns / tck)
	if float64(n)*tck < ns-1e-9 {
		n++
	}
	return n
}

// NanosFromCycles converts bus cycles to nanoseconds.
func (s Spec) NanosFromCycles(c Cycle) float64 {
	return float64(c) * 1000.0 / float64(s.BusMHz)
}
