package dram

import (
	"fmt"

	"repro/internal/prof"
)

// CommandCounts tallies issued commands, for statistics and the energy
// model. FastACT counts activations issued with a lowered timing class;
// RASCycles accumulates the tRAS actually applied to each ACT (the energy
// model charges restoration current for exactly that long).
type CommandCounts struct {
	ACT     uint64
	FastACT uint64
	PRE     uint64
	RD      uint64
	WR      uint64
	REF     uint64

	RASCycles uint64
}

// Channel is one DRAM channel: a set of ranks sharing a command/address
// bus and a data bus. It is the unit the memory controller drives.
//
// Command legality is tracked as next-allowed-cycle registers, one per
// (bank|rank, command kind), advanced incrementally at Issue time
// straight from the spec's Timing. The *IssueAt reads (events.go) fold
// them into the exact cycle each command becomes legal; they are the
// model's only legality definition, and CanIssue is a coordinate and
// bank-state check plus "IssueAt ≤ now".
//
// Channel is not safe for concurrent use; the simulator drives each
// channel from a single goroutine.
type Channel struct {
	spec  Spec
	ranks []rank

	// dataBusFree is the first cycle at which a new data burst could
	// start, together with the rank that last used the bus (for tRTRS).
	dataBusFree Cycle
	dataBusRank int

	counts      CommandCounts
	now         Cycle // last issue or sync time, for accounting
	accountBase Cycle // start of the current accounting window

	// tracer, if set, observes every issued command (see SetTracer).
	tracer func(Command, Cycle)

	// probe, if set, receives every issued command with perf-analyzer
	// annotations (see SetProbe in probe.go).
	probe CommandProbe

	// profiler, if set, attributes sampled wall-clock time to command
	// issue (see SetProfiler).
	profiler *prof.Timer
}

// SetTracer installs fn to observe every issued command (protocol
// checking, logging). A nil fn removes the tracer.
func (c *Channel) SetTracer(fn func(Command, Cycle)) { c.tracer = fn }

// SetProfiler installs the sampled phase timer on Issue (nil removes
// it). The disabled path costs one nil check per issued command.
func (c *Channel) SetProfiler(t *prof.Timer) { c.profiler = t }

// NewChannel builds a channel for the given spec. The spec must validate.
func NewChannel(spec Spec) (*Channel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{spec: spec, dataBusRank: -1}
	ch.ranks = make([]rank, spec.Geometry.Ranks)
	for i := range ch.ranks {
		ch.ranks[i] = newRank(spec.Geometry.Banks)
	}
	return ch, nil
}

// Spec returns the channel's specification.
func (c *Channel) Spec() Spec { return c.spec }

// Counts returns the commands issued so far.
func (c *Channel) Counts() CommandCounts { return c.counts }

// OpenRow reports the open row in (rank, bank), if any.
func (c *Channel) OpenRow(rankID, bankID int) (row int, open bool) {
	b := &c.ranks[rankID].banks[bankID]
	return b.row, b.open
}

// EarliestActivate returns the earliest cycle at which the bank itself
// could accept another ACT (the same-bank tRC/tRP bound; rank-level
// constraints excluded). Schedulers use it to avoid precharging a row
// earlier than it can possibly help the next activation.
func (c *Channel) EarliestActivate(rankID, bankID int) Cycle {
	return c.ranks[rankID].banks[bankID].nextACT
}

// CanIssue reports whether cmd may legally issue at cycle now: its
// coordinates are in range, its bank is in the state the command needs
// (REF: every bank of the rank closed), and its ready-at read is at most
// now.
//
//ccsim:zeroalloc
func (c *Channel) CanIssue(cmd Command, now Cycle) bool {
	g := &c.spec.Geometry
	if cmd.Rank < 0 || cmd.Rank >= g.Ranks {
		return false
	}
	if cmd.Kind == CmdREF {
		return c.ranks[cmd.Rank].openBanks == 0 && c.RefIssueAt(cmd.Rank) <= now
	}
	if cmd.Bank < 0 || cmd.Bank >= g.Banks {
		return false
	}
	open := c.ranks[cmd.Rank].banks[cmd.Bank].open
	switch cmd.Kind {
	case CmdACT:
		return !open && cmd.Row >= 0 && cmd.Row < g.Rows && c.ActIssueAt(cmd.Rank, cmd.Bank) <= now
	case CmdPRE:
		// Precharging a closed bank is a legal no-op in DDR3, but the
		// controller never needs it; require an open row.
		return open && c.PreIssueAt(cmd.Rank, cmd.Bank) <= now
	case CmdRD, CmdWR:
		return open && cmd.Col >= 0 && cmd.Col < g.Columns &&
			c.ColumnIssueAt(cmd.Rank, cmd.Bank, cmd.Kind == CmdRD) <= now
	default:
		return false
	}
}

// Issue applies cmd at cycle now. It panics if the command is illegal;
// callers must gate with CanIssue (an illegal issue is a controller bug,
// not a runtime condition). Each case advances exactly the registers the
// command's timing arcs constrain.
//
//ccsim:zeroalloc
func (c *Channel) Issue(cmd Command, now Cycle) {
	if !c.CanIssue(cmd, now) {
		panic(fmt.Sprintf("dram: illegal %v at cycle %d", cmd, now))
	}
	if c.profiler != nil {
		pt := c.profiler.Begin(prof.Issue)
		defer c.profiler.End(prof.Issue, pt, int64(now))
	}
	if c.tracer != nil {
		c.tracer(cmd, now)
	}
	if c.probe != nil {
		c.observe(cmd, now)
	}
	t := &c.spec.Timing
	r := &c.ranks[cmd.Rank]
	r.settle(now)
	c.now = now
	switch cmd.Kind {
	case CmdACT:
		b := &r.banks[cmd.Bank]
		b.applyACT(now, cmd.Row, cmd.Class, t)
		r.applyACT(now, t)
		r.noteBankACT(b.nextACT)
		r.openBanks++
		c.counts.ACT++
		c.counts.RASCycles += uint64(cmd.Class.RAS)
		if cmd.Class.Lowers(t.DefaultClass()) {
			c.counts.FastACT++
		}
	case CmdPRE:
		b := &r.banks[cmd.Bank]
		b.applyPRE(now, t)
		r.noteBankACT(b.nextACT)
		r.openBanks--
		c.counts.PRE++
	case CmdRD:
		b := &r.banks[cmd.Bank]
		b.applyRD(now, t)
		r.applyRD(now, t)
		c.dataBusFree = c.ReadDataAt(now)
		c.dataBusRank = cmd.Rank
		c.counts.RD++
	case CmdWR:
		b := &r.banks[cmd.Bank]
		b.applyWR(now, t)
		r.applyWR(now, t)
		c.dataBusFree = c.WriteDataAt(now)
		c.dataBusRank = cmd.Rank
		c.counts.WR++
	case CmdREF:
		r.applyREF(now, t)
		r.inRefreshWindow = true
		c.counts.REF++
	}
}

// ReadDataAt returns the cycle at which read data issued at issueCycle is
// fully transferred (end of burst).
func (c *Channel) ReadDataAt(issueCycle Cycle) Cycle {
	return issueCycle + Cycle(c.spec.Timing.CL+c.spec.Timing.BL)
}

// WriteDataAt returns the cycle at which write data issued at issueCycle
// is fully transferred.
func (c *Channel) WriteDataAt(issueCycle Cycle) Cycle {
	return issueCycle + Cycle(c.spec.Timing.CWL+c.spec.Timing.BL)
}

// SyncAccounting integrates background-state accounting to cycle now.
// Call once at the end of simulation (and whenever a consistent energy
// snapshot is needed).
func (c *Channel) SyncAccounting(now Cycle) {
	for i := range c.ranks {
		c.ranks[i].settle(now)
	}
	c.now = now
}

// ResetAccounting zeroes command counts and occupancy integration as of
// cycle now (used after simulation warm-up). Timing and row-buffer state
// are preserved.
func (c *Channel) ResetAccounting(now Cycle) {
	c.SyncAccounting(now)
	c.counts = CommandCounts{}
	for i := range c.ranks {
		r := &c.ranks[i]
		r.activeCycles = 0
		r.refreshCycles = 0
		r.lastEdge = now
	}
	c.now = now
	c.accountBase = now
}

// Occupancy summarizes per-channel background state for the power model.
type Occupancy struct {
	ActiveCycles  Cycle // cycles with >=1 bank open (outside refresh)
	RefreshCycles Cycle // cycles inside tRFC windows
	TotalCycles   Cycle
}

// Occupancy returns aggregate occupancy across the channel's ranks up to
// the last SyncAccounting call, covering the current accounting window
// (since construction or the last ResetAccounting).
func (c *Channel) Occupancy() Occupancy {
	var o Occupancy
	for i := range c.ranks {
		o.ActiveCycles += c.ranks[i].activeCycles
		o.RefreshCycles += c.ranks[i].refreshCycles
	}
	o.TotalCycles = (c.now - c.accountBase) * Cycle(len(c.ranks))
	return o
}
