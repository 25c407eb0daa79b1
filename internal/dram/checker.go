package dram

import "fmt"

// Checker is an independent DDR3 protocol validator: it re-derives every
// inter-command constraint from first principles (its own command
// history, deliberately structured differently from the channel's
// next-allowed registers, and derived from Timing, never from the
// channel's timing table) and reports a violation for any command that a
// real device would reject. One rule set (check) answers both Legal, a
// query, and Observe, which checks each issued command and then records
// it. Attach Observe to a Channel with SetTracer and it validates the
// full command stream; tests use it to cross-check the timing engine
// against arbitrary controller behaviour.
type Checker struct {
	spec Spec

	// Per (rank, bank) command history; index rank*banks+bank.
	lastACT []Cycle
	lastRD  []Cycle
	lastWR  []Cycle
	lastPRE []Cycle
	openRow []int
	isOpen  []bool
	actRCD  []int // tRCD of the class used by the last ACT
	actRAS  []int // tRAS of the class used by the last ACT

	// Per rank.
	rankACTs []([]Cycle) // ACT history for tRRD/tFAW
	lastREF  []Cycle
	rankRD   []Cycle
	rankWR   []Cycle

	// The data bus: the end of the last burst and the rank it served.
	busFree Cycle
	busRank int

	violations []string
}

// NewChecker builds a checker for spec.
func NewChecker(spec Spec) *Checker {
	nb := spec.Geometry.Ranks * spec.Geometry.Banks
	nr := spec.Geometry.Ranks
	c := &Checker{
		spec:    spec,
		lastACT: negCycles(nb), lastRD: negCycles(nb), lastWR: negCycles(nb),
		lastPRE: negCycles(nb),
		openRow: make([]int, nb), isOpen: make([]bool, nb),
		actRCD: make([]int, nb), actRAS: make([]int, nb),
		rankACTs: make([][]Cycle, nr),
		lastREF:  negCycles(nr), rankRD: negCycles(nr), rankWR: negCycles(nr),
		busFree: never, busRank: -1,
	}
	return c
}

// never stands for "no such command yet": far enough in the past that
// every gap measured from it passes.
const never Cycle = -1 << 40

func negCycles(n int) []Cycle {
	s := make([]Cycle, n)
	for i := range s {
		s[i] = never
	}
	return s
}

// Violations returns the violations recorded so far.
func (c *Checker) Violations() []string {
	return append([]string(nil), c.violations...)
}

// Legal reports whether cmd may issue at cycle now, given the commands
// observed so far.
func (c *Checker) Legal(cmd Command, now Cycle) bool {
	legal := true
	c.check(cmd, now, func(string, ...any) { legal = false })
	return legal
}

// Observe validates one issued command, then records it. Call it from a
// Channel tracer.
func (c *Checker) Observe(cmd Command, now Cycle) {
	c.check(cmd, now, func(format string, args ...any) {
		c.violations = append(c.violations,
			fmt.Sprintf("cycle %d %v: %s", now, cmd, fmt.Sprintf(format, args...)))
	})
	c.record(cmd, now)
}

// check calls report once for every DDR3 constraint that cmd at now
// violates.
func (c *Checker) check(cmd Command, now Cycle, report func(format string, args ...any)) {
	t := c.spec.Timing
	b := cmd.Rank*c.spec.Geometry.Banks + cmd.Bank
	// Only NOPs may issue to a rank inside its tRFC window.
	if gap := now - c.lastREF[cmd.Rank]; gap >= 0 && gap < Cycle(t.RFC) {
		report("tRFC violated: %v %d after REF", cmd.Kind, gap)
	}
	switch cmd.Kind {
	case CmdACT:
		if c.isOpen[b] {
			report("ACT on open bank (row %d)", c.openRow[b])
		}
		if gap := now - c.lastACT[b]; gap < Cycle(c.minRC(b)) {
			report("tRC violated: gap %d < %d", gap, c.minRC(b))
		}
		if gap := now - c.lastPRE[b]; gap < Cycle(t.RP) {
			report("tRP violated: gap %d < %d", gap, t.RP)
		}
		for _, prev := range c.rankACTs[cmd.Rank] {
			if gap := now - prev; gap >= 0 && gap < Cycle(t.RRD) {
				report("tRRD violated: gap %d < %d", gap, t.RRD)
			}
		}
		if n := len(c.rankACTs[cmd.Rank]); n >= 4 {
			if gap := now - c.rankACTs[cmd.Rank][n-4]; gap < Cycle(t.FAW) {
				report("tFAW violated: 5th ACT %d cycles after 4-back", gap)
			}
		}

	case CmdRD, CmdWR:
		if !c.isOpen[b] {
			report("column command on closed bank")
			return
		}
		if gap := now - c.lastACT[b]; gap < Cycle(c.actRCD[b]) {
			report("tRCD violated: gap %d < %d", gap, c.actRCD[b])
		}
		var colGap Cycle
		if cmd.Kind == CmdRD {
			colGap = now - c.rankRD[cmd.Rank]
		} else {
			colGap = now - c.rankWR[cmd.Rank]
		}
		if colGap >= 0 && colGap < Cycle(t.CCD) {
			report("tCCD violated: gap %d < %d", colGap, t.CCD)
		}
		start := now + Cycle(t.CL)
		if cmd.Kind == CmdRD {
			// Write-to-read: CWL + BL + WTR.
			if gap := now - c.rankWR[cmd.Rank]; gap >= 0 && gap < Cycle(t.CWL+t.BL+t.WTR) {
				report("tWTR violated: gap %d < %d", gap, t.CWL+t.BL+t.WTR)
			}
		} else {
			start = now + Cycle(t.CWL)
			// Read-to-write turnaround.
			if gap := now - c.rankRD[cmd.Rank]; gap >= 0 && gap < Cycle(t.RTW) {
				report("tRTW violated: gap %d < %d", gap, t.RTW)
			}
		}
		// The data burst may not overlap the previous one, and a burst
		// from another rank waits tRTRS more for the bus to switch.
		if c.busRank >= 0 && c.busRank != cmd.Rank {
			if free := c.busFree + Cycle(t.RTRS); start < free {
				report("tRTRS violated: burst at %d, bus free at %d", start, free)
			}
		} else if start < c.busFree {
			report("data bus overlap: burst at %d, bus free at %d", start, c.busFree)
		}

	case CmdPRE:
		if !c.isOpen[b] {
			report("PRE on closed bank")
			return
		}
		if gap := now - c.lastACT[b]; gap < Cycle(c.actRAS[b]) {
			report("tRAS violated: gap %d < %d", gap, c.actRAS[b])
		}
		if gap := now - c.lastRD[b]; gap >= 0 && gap < Cycle(t.RTP) {
			report("tRTP violated: gap %d < %d", gap, t.RTP)
		}
		if gap := now - c.lastWR[b]; gap >= 0 && gap < Cycle(t.CWL+t.BL+t.WR) {
			report("tWR violated: gap %d < %d", gap, t.CWL+t.BL+t.WR)
		}

	case CmdREF:
		// REF activates rows internally: every bank must be closed and
		// past its precharge (tRP) and previous activate (tRC) windows,
		// like an ACT would be.
		for bank := 0; bank < c.spec.Geometry.Banks; bank++ {
			i := cmd.Rank*c.spec.Geometry.Banks + bank
			if c.isOpen[i] {
				report("REF with bank %d open", bank)
			}
			if gap := now - c.lastPRE[i]; gap >= 0 && gap < Cycle(t.RP) {
				report("REF %d cycles after PRE of bank %d", gap, bank)
			}
			if gap := now - c.lastACT[i]; gap < Cycle(c.minRC(i)) {
				report("REF %d cycles after ACT of bank %d (tRC)", gap, bank)
			}
		}
	}
}

// record applies an issued command to the history.
func (c *Checker) record(cmd Command, now Cycle) {
	t := c.spec.Timing
	b := cmd.Rank*c.spec.Geometry.Banks + cmd.Bank
	switch cmd.Kind {
	case CmdACT:
		c.lastACT[b] = now
		c.isOpen[b] = true
		c.openRow[b] = cmd.Row
		c.actRCD[b] = cmd.Class.RCD
		c.actRAS[b] = cmd.Class.RAS
		c.rankACTs[cmd.Rank] = append(c.rankACTs[cmd.Rank], now)
		if len(c.rankACTs[cmd.Rank]) > 8 {
			c.rankACTs[cmd.Rank] = c.rankACTs[cmd.Rank][1:]
		}
	case CmdRD:
		c.rankRD[cmd.Rank] = now
		c.lastRD[b] = now
		c.busFree, c.busRank = now+Cycle(t.CL+t.BL), cmd.Rank
	case CmdWR:
		c.rankWR[cmd.Rank] = now
		c.lastWR[b] = now
		c.busFree, c.busRank = now+Cycle(t.CWL+t.BL), cmd.Rank
	case CmdPRE:
		c.lastPRE[b] = now
		c.isOpen[b] = false
	case CmdREF:
		c.lastREF[cmd.Rank] = now
	}
}

// minRC returns the ACT-to-ACT minimum implied by the previous ACT's
// class under the spec's tRC policy.
func (c *Checker) minRC(b int) int {
	t := c.spec.Timing
	if c.actRAS[b] == 0 {
		return 0 // no previous ACT
	}
	if t.RCFromClass {
		rc := c.actRAS[b] + t.RP
		if rc > t.RC {
			rc = t.RC
		}
		return rc
	}
	return t.RC
}
