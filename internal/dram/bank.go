package dram

// bank tracks one bank's row buffer and, per command kind, the earliest
// cycle at which that command may next be issued to it. The registers
// are maintained incrementally from the spec's Timing: each Issue
// advances exactly the registers its timing arcs constrain, so the
// Channel's *IssueAt reads are pure field comparisons. The per-bank
// constraints are exactly the DDR3 intra-bank ones:
//
//	ACT -> RD/WR   tRCD (from the ACT's timing class)
//	ACT -> PRE     tRAS (from the ACT's timing class)
//	ACT -> ACT     tRC
//	RD  -> PRE     tRTP
//	WR  -> PRE     tCWL + tBL + tWR
//	PRE -> ACT     tRP
type bank struct {
	open bool
	row  int // open row when open

	nextACT Cycle
	nextRD  Cycle
	nextWR  Cycle
	nextPRE Cycle
}

func (b *bank) applyACT(now Cycle, row int, class TimingClass, t *Timing) {
	b.open = true
	b.row = row
	b.nextRD = maxCycle(b.nextRD, now+Cycle(class.RCD))
	b.nextWR = maxCycle(b.nextWR, now+Cycle(class.RCD))
	b.nextPRE = maxCycle(b.nextPRE, now+Cycle(class.RAS))
	rc := t.RC
	if t.RCFromClass {
		rc = min(rc, class.RAS+t.RP)
	}
	b.nextACT = maxCycle(b.nextACT, now+Cycle(rc))
}

func (b *bank) applyRD(now Cycle, t *Timing) {
	b.nextPRE = maxCycle(b.nextPRE, now+Cycle(t.RTP))
}

func (b *bank) applyWR(now Cycle, t *Timing) {
	b.nextPRE = maxCycle(b.nextPRE, now+Cycle(t.CWL+t.BL+t.WR))
}

func (b *bank) applyPRE(now Cycle, t *Timing) {
	b.open = false
	b.row = 0
	b.nextACT = maxCycle(b.nextACT, now+Cycle(t.RP))
}

func maxCycle(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}
