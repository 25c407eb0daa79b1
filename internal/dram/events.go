package dram

// NoEvent is the sentinel "no scheduled future event" cycle. It is far
// beyond any reachable simulation time but small enough that callers
// can still add offsets without overflowing.
const NoEvent Cycle = 1 << 56

// The *IssueAt reads below are the model's legality definition: for an
// in-range command to a bank in the stated state, the command is legal
// at now iff its IssueAt ≤ now (CanIssue is exactly that check), so one
// read both decides legality and gives the exact wake-up when the
// command is not yet legal. The scheduler and the refresh preparation
// judge their candidates, and the event horizon times its wake-ups, by
// these reads alone.

// ColumnIssueAt returns the exact earliest cycle at which a RD/WR to
// (rank, bank) can issue, assuming the bank stays active and no other
// command intervenes: the bank's tRCD bound, the rank's tCCD/turnaround
// bound (refresh folded in), and the data-bus release (with tRTRS if the
// bus last served another rank).
func (c *Channel) ColumnIssueAt(rankID, bankID int, isRead bool) Cycle {
	t := &c.spec.Timing
	r := &c.ranks[rankID]
	free := c.dataBusFree
	if c.dataBusRank >= 0 && c.dataBusRank != rankID {
		free += Cycle(t.RTRS)
	}
	if isRead {
		return maxCycle(r.banks[bankID].nextRD, maxCycle(r.nextRD, free-Cycle(t.CL)))
	}
	return maxCycle(r.banks[bankID].nextWR, maxCycle(r.nextWR, free-Cycle(t.CWL)))
}

// ActIssueAt returns the exact earliest cycle an ACT to (rank, bank)
// can issue, assuming the bank stays precharged and no command
// intervenes: the bank's tRC/tRP bound and the rank's tRRD/tFAW/refresh
// bound.
func (c *Channel) ActIssueAt(rankID, bankID int) Cycle {
	return maxCycle(c.ranks[rankID].banks[bankID].nextACT, c.ranks[rankID].nextACT)
}

// PreIssueAt returns the exact earliest cycle a PRE to (rank, bank) can
// issue, assuming the bank stays active and no command intervenes: the
// bank's tRAS/tRTP/tWR bound and the end of a refresh.
func (c *Channel) PreIssueAt(rankID, bankID int) Cycle {
	return maxCycle(c.ranks[rankID].banks[bankID].nextPRE, c.ranks[rankID].refreshUntil)
}

// RefIssueAt returns the exact earliest cycle a REF to the rank can
// issue, assuming every bank stays precharged and no command intervenes:
// the previous REF's tRFC and, because refresh activates rows
// internally, every bank's tRP/tRC bound, like an ACT's.
func (c *Channel) RefIssueAt(rankID int) Cycle {
	r := &c.ranks[rankID]
	return maxCycle(r.nextREF, r.maxBankNextACT)
}
