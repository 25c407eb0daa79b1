package dram

// BankState is the coarse state of one bank's row buffer.
type BankState uint8

const (
	// BankPrecharged means no row is open.
	BankPrecharged BankState = iota
	// BankActive means a row is open (possibly still within tRCD).
	BankActive
)

// String implements fmt.Stringer.
func (s BankState) String() string {
	if s == BankPrecharged {
		return "precharged"
	}
	return "active"
}

// bank tracks one bank's row-buffer state and, per command kind, the
// earliest cycle at which that command may next be issued to it. The
// registers are maintained incrementally: each Issue advances exactly
// the registers its timing arcs constrain, so the Channel's *IssueAt
// reads are pure field comparisons. The per-bank constraints are exactly
// the DDR3 intra-bank ones:
//
//	ACT -> RD/WR   tRCD (from the ACT's timing class)
//	ACT -> PRE     tRAS (from the ACT's timing class)
//	ACT -> ACT     tRC
//	RD  -> PRE     tRTP
//	WR  -> PRE     tCWL + tBL + tWR
//	PRE -> ACT     tRP
type bank struct {
	state BankState
	row   int // open row when state == BankActive

	nextACT Cycle
	nextRD  Cycle
	nextWR  Cycle
	nextPRE Cycle

	lastACT      Cycle // issue time of the most recent ACT
	lastACTClass TimingClass
}

func (b *bank) reset() {
	*b = bank{}
}

// openRow returns the open row and whether the bank is active.
func (b *bank) openRow() (int, bool) {
	return b.row, b.state == BankActive
}

func (b *bank) applyACT(now Cycle, row int, class TimingClass, tt *timingTable) {
	b.state = BankActive
	b.row = row
	b.lastACT = now
	b.lastACTClass = class
	b.nextRD = maxCycle(b.nextRD, now+Cycle(class.RCD))
	b.nextWR = maxCycle(b.nextWR, now+Cycle(class.RCD))
	b.nextPRE = maxCycle(b.nextPRE, now+Cycle(class.RAS))
	rc := tt.rc
	if tt.rcFromClass && Cycle(class.RAS)+tt.rp < rc {
		rc = Cycle(class.RAS) + tt.rp
	}
	b.nextACT = maxCycle(b.nextACT, now+rc)
}

func (b *bank) applyRD(now Cycle, tt *timingTable) {
	b.nextPRE = maxCycle(b.nextPRE, now+tt.rtp)
}

func (b *bank) applyWR(now Cycle, tt *timingTable) {
	b.nextPRE = maxCycle(b.nextPRE, now+tt.wrToPre)
}

func (b *bank) applyPRE(now Cycle, tt *timingTable) {
	b.state = BankPrecharged
	b.row = 0
	b.nextACT = maxCycle(b.nextACT, now+tt.rp)
}

func maxCycle(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}
