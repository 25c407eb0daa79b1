package dram

// rank tracks the rank-level DDR3 constraints with one next-allowed
// register per command kind, advanced from the spec's Timing and each
// folded to the exact legality flip so every rank check is a single
// comparison:
//
//	nextACT  ACT -> ACT across banks: tRRD spacing, the tFAW sliding
//	         window head (folded in whenever the window is full), and
//	         tRFC refresh busy
//	nextRD   RD/WR -> RD (any bank): tCCD, WTR turnaround, tRFC
//	nextWR   RD/WR -> WR: tCCD, RTW turnaround, tRFC
//	nextREF  REF spacing (tRFC of the previous REF); REF additionally
//	         requires every bank precharged and past its own ACT window,
//	         tracked by openBanks and the running maxBankNextACT
type rank struct {
	banks []bank

	nextACT Cycle // earliest next ACT to any bank of this rank
	nextRD  Cycle // earliest next RD command to this rank
	nextWR  Cycle // earliest next WR command to this rank
	nextREF Cycle // earliest next REF (after tRFC of the previous)

	// maxBankNextACT is the running maximum of the banks' nextACT
	// registers. Bank registers only move forward, so maintaining the
	// maximum at update time keeps REF legality (every bank past its
	// precharge and activate windows) an O(1) comparison.
	maxBankNextACT Cycle

	// actWindow holds the issue times of the four most recent ACTs, for
	// the tFAW sliding-window constraint. actWindowLen counts valid
	// entries; the oldest entry is at index 0.
	actWindow    [4]Cycle
	actWindowLen int

	refreshUntil Cycle // rank is busy refreshing until this cycle

	// Occupancy accounting for the power model: cycles with at least one
	// bank active vs all banks precharged, plus refresh-busy cycles.
	openBanks       int
	lastEdge        Cycle
	activeCycles    Cycle
	refreshCycles   Cycle
	inRefreshWindow bool
}

func newRank(banks int) rank {
	return rank{banks: make([]bank, banks)}
}

// settle closes out an elapsed refresh window and integrates the
// background-state accounting up to now.
func (r *rank) settle(now Cycle) {
	if r.inRefreshWindow && now >= r.refreshUntil {
		r.accountTo(r.refreshUntil)
		r.inRefreshWindow = false
	}
	r.accountTo(now)
}

// accountTo integrates the background-state accounting up to now.
func (r *rank) accountTo(now Cycle) {
	if now <= r.lastEdge {
		return
	}
	dt := now - r.lastEdge
	if r.inRefreshWindow {
		r.refreshCycles += dt
	} else if r.openBanks > 0 {
		r.activeCycles += dt
	}
	r.lastEdge = now
}

// noteBankACT folds a bank's advanced nextACT register into the running
// rank maximum. Call after every bank nextACT update (ACT and PRE).
func (r *rank) noteBankACT(at Cycle) {
	if at > r.maxBankNextACT {
		r.maxBankNextACT = at
	}
}

func (r *rank) applyACT(now Cycle, t *Timing) {
	r.nextACT = maxCycle(r.nextACT, now+Cycle(t.RRD))
	// Slide the tFAW window; once it is full, the oldest entry's expiry
	// bounds the next ACT and is folded straight into nextACT, so the
	// register is the exact legality flip.
	if r.actWindowLen == 4 {
		copy(r.actWindow[:], r.actWindow[1:])
		r.actWindow[3] = now + Cycle(t.FAW)
	} else {
		r.actWindow[r.actWindowLen] = now + Cycle(t.FAW)
		r.actWindowLen++
	}
	if r.actWindowLen == 4 {
		r.nextACT = maxCycle(r.nextACT, r.actWindow[0])
	}
}

func (r *rank) applyRD(now Cycle, t *Timing) {
	r.nextRD = maxCycle(r.nextRD, now+Cycle(t.CCD))
	r.nextWR = maxCycle(r.nextWR, now+Cycle(t.RTW))
}

func (r *rank) applyWR(now Cycle, t *Timing) {
	r.nextWR = maxCycle(r.nextWR, now+Cycle(t.CCD))
	r.nextRD = maxCycle(r.nextRD, now+Cycle(t.CWL+t.BL+t.WTR))
}

func (r *rank) applyREF(now Cycle, t *Timing) {
	r.refreshUntil = now + Cycle(t.RFC)
	r.nextACT = maxCycle(r.nextACT, r.refreshUntil)
	r.nextRD = maxCycle(r.nextRD, r.refreshUntil)
	r.nextWR = maxCycle(r.nextWR, r.refreshUntil)
	r.nextREF = r.refreshUntil
}
