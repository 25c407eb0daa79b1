package dram

// NoEvent is the sentinel "no scheduled future event" cycle. It is far
// beyond any reachable simulation time but small enough that callers
// can still add offsets without overflowing.
const NoEvent Cycle = 1 << 56

// The *IssueAt reads below are the scheduler's legality source: for an
// in-range command to a bank in the stated state, "IssueAt ≤ now" equals
// CanIssue at now, so one read both decides legality and gives the exact
// wake-up when the command is not yet legal.

// ColumnIssueAt returns the exact earliest cycle at which a RD/WR to
// (rank, bank) can issue, assuming the bank stays active and no other
// command intervenes: the bank's tRCD bound, the rank's tCCD/turnaround
// bound (refresh folded in), and the data-bus release (with tRTRS if the
// bus last served another rank).
func (c *Channel) ColumnIssueAt(rankID, bankID int, isRead bool) Cycle {
	r := &c.ranks[rankID]
	free := c.dataBusFree
	if c.dataBusRank >= 0 && c.dataBusRank != rankID {
		free += c.tt.rtrs
	}
	if isRead {
		return maxCycle(r.banks[bankID].nextRD, maxCycle(r.nextRD, free-c.tt.cl))
	}
	return maxCycle(r.banks[bankID].nextWR, maxCycle(r.nextWR, free-c.tt.cwl))
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

// NextTimingExpiry returns the earliest cycle strictly after now at
// which a timing constraint of this channel expires, or NoEvent when
// none is pending. The event-driven scheduler uses it as a conservative
// wake-up bound: between now and the returned cycle, no command that is
// currently illegal can become legal, because command legality changes
// only when (a) one of the next-allowed registers expires or (b) a
// command issues — and issuing is itself an executed event.
//
// The registers are folded to exact legality flips at Issue time (tFAW
// window head and refresh busy into the rank ACT register, refresh into
// the column and REF registers), so the candidate enumeration is a flat
// read of the register file:
//
//	ACT  — bank.nextACT, rank.nextACT
//	PRE  — bank.nextPRE, rank.refreshUntil; also bank.nextACT - tRP,
//	       the first cycle at which the controller's preUseful heuristic
//	       allows a conflict precharge (the PRE acts *before* nextACT)
//	RD/WR — bank/rank next read/write bounds and the data-bus release
//	       minus the command-to-data lead time (two candidates: with and
//	       without the tRTRS rank-switch penalty, so a cross-rank bus
//	       flip is never later than the bound)
//	REF  — rank.nextREF; the per-bank ACT bounds REF legality also
//	       checks are covered by the bank.nextACT candidates
//
// The result is cached and invalidated by Issue: registers move only
// then, so between issues repeated queries are O(1) reads, and the scan
// cost amortizes to one register-file pass per issued command.
//
// Waking earlier than strictly necessary is harmless (an idle
// controller tick is idempotent); waking late would skip an event, so
// every candidate errs early.
func (c *Channel) NextTimingExpiry(now Cycle) Cycle {
	if !c.expiryStale && c.expiryFrom <= now && c.expiryCache > now {
		// Unchanged registers and an unexpired bound: the cached value
		// was the earliest candidate after expiryFrom and no candidate
		// lies in (expiryFrom, cache), so it is still the earliest
		// after now.
		return c.expiryCache
	}
	v := c.scanExpiry(now)
	c.expiryStale = false
	c.expiryFrom = now
	c.expiryCache = v
	return v
}

// scanExpiry enumerates the register file for the earliest candidate
// strictly after now.
func (c *Channel) scanExpiry(now Cycle) Cycle {
	next := NoEvent
	add := func(t Cycle) {
		if t > now && t < next {
			next = t
		}
	}
	add(c.dataBusFree - c.tt.cl)
	add(c.dataBusFree - c.tt.cwl)
	if len(c.ranks) > 1 {
		add(c.dataBusFree + c.tt.rtrs - c.tt.cl)
		add(c.dataBusFree + c.tt.rtrs - c.tt.cwl)
	}
	rp := c.tt.rp
	for i := range c.ranks {
		r := &c.ranks[i]
		add(r.nextACT)
		add(r.nextRD)
		add(r.nextWR)
		add(r.nextREF)
		add(r.refreshUntil)
		for b := range r.banks {
			bk := &r.banks[b]
			if bk.maxReg <= now {
				// Every register of this bank lies in the past: no
				// candidate here (nextACT-tRP is bounded by nextACT).
				continue
			}
			add(bk.nextACT)
			add(bk.nextACT - rp)
			add(bk.nextPRE)
			add(bk.nextRD)
			add(bk.nextWR)
		}
	}
	return next
}
