package dram

import "testing"

func testSpec() Spec { return DDR31600(1) }

func mustChannel(t *testing.T) *Channel {
	t.Helper()
	ch, err := NewChannel(testSpec())
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return ch
}

func TestSpecValidates(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		if err := DDR31600(channels).Validate(); err != nil {
			t.Errorf("DDR31600(%d) invalid: %v", channels, err)
		}
	}
}

func TestSpecTable1Values(t *testing.T) {
	s := testSpec()
	if s.Timing.RCD != 11 || s.Timing.RAS != 28 {
		t.Errorf("tRCD/tRAS = %d/%d, Table 1 wants 11/28", s.Timing.RCD, s.Timing.RAS)
	}
	if s.Geometry.Banks != 8 {
		t.Errorf("banks = %d, want 8", s.Geometry.Banks)
	}
	if s.Geometry.Rows != 64*1024 {
		t.Errorf("rows = %d, want 64K", s.Geometry.Rows)
	}
	if got := s.Geometry.RowBufferBytes(); got != 8*1024 {
		t.Errorf("row buffer = %dB, want 8KB", got)
	}
	if s.BusMHz != 800 {
		t.Errorf("bus = %dMHz, want 800", s.BusMHz)
	}
}

func TestGeometryTotalBytes(t *testing.T) {
	s := DDR31600(2)
	// 2 ch x 1 rank x 8 banks x 64K rows x 8KB rows = 8 GiB.
	want := uint64(8) << 30
	if got := s.Geometry.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestGeometryValidateRejectsNonPowerOfTwo(t *testing.T) {
	g := testSpec().Geometry
	g.Banks = 6
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted non-power-of-two bank count")
	}
	g = testSpec().Geometry
	g.Rows = 0
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted zero rows")
	}
}

func TestTimingValidateRejectsBadRC(t *testing.T) {
	tm := testSpec().Timing
	tm.RC = tm.RAS // < RAS+RP
	if err := tm.Validate(); err == nil {
		t.Error("Validate accepted tRC < tRAS+tRP")
	}
}

func TestCyclesFromNanos(t *testing.T) {
	s := testSpec() // tCK = 1.25ns
	cases := []struct {
		ns   float64
		want int
	}{
		{13.75, 11},
		{35, 28},
		{8, 7},    // rounds up: 6.4 cycles
		{22, 18},  // 17.6
		{1.25, 1}, // exact
		{1.26, 2},
	}
	for _, c := range cases {
		if got := s.CyclesFromNanos(c.ns); got != c.want {
			t.Errorf("CyclesFromNanos(%g) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestNanosCyclesRoundTrip(t *testing.T) {
	s := testSpec()
	if got := s.NanosFromCycles(28); got != 35 {
		t.Errorf("NanosFromCycles(28) = %g, want 35", got)
	}
	if got := s.MillisecondsToCycles(1); got != 800_000 {
		t.Errorf("MillisecondsToCycles(1) = %d, want 800000", got)
	}
	if got := s.CyclesToMilliseconds(800_000); got != 1 {
		t.Errorf("CyclesToMilliseconds(800000) = %g, want 1", got)
	}
}

func TestActivateThenReadTiming(t *testing.T) {
	ch := mustChannel(t)
	cls := ch.Spec().Timing.DefaultClass()

	act := Act(0, 0, 42, cls)
	if !ch.CanIssue(act, 0) {
		t.Fatal("ACT not issuable at cycle 0")
	}
	ch.Issue(act, 0)

	rd := Read(0, 0, 7)
	for c := Cycle(0); c < Cycle(ch.Spec().Timing.RCD); c++ {
		if ch.CanIssue(rd, c) {
			t.Fatalf("RD issuable at %d, before tRCD=%d", c, ch.Spec().Timing.RCD)
		}
	}
	if !ch.CanIssue(rd, Cycle(ch.Spec().Timing.RCD)) {
		t.Fatalf("RD not issuable at tRCD=%d", ch.Spec().Timing.RCD)
	}
}

func TestReducedTimingClassShortensRCD(t *testing.T) {
	ch := mustChannel(t)
	fast := TimingClass{RCD: 7, RAS: 20}
	ch.Issue(Act(0, 0, 1, fast), 0)
	rd := Read(0, 0, 0)
	if ch.CanIssue(rd, 6) {
		t.Error("RD issuable before reduced tRCD")
	}
	if !ch.CanIssue(rd, 7) {
		t.Error("RD not issuable at reduced tRCD=7")
	}
	pre := Pre(0, 0)
	if ch.CanIssue(pre, 19) {
		t.Error("PRE issuable before reduced tRAS")
	}
	if !ch.CanIssue(pre, 20) {
		t.Error("PRE not issuable at reduced tRAS=20")
	}
	if got := ch.Counts().FastACT; got != 1 {
		t.Errorf("FastACT count = %d, want 1", got)
	}
}

func TestPrechargeRequiresRAS(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 3, tm.DefaultClass()), 0)
	pre := Pre(0, 0)
	if ch.CanIssue(pre, Cycle(tm.RAS-1)) {
		t.Error("PRE issuable before tRAS")
	}
	if !ch.CanIssue(pre, Cycle(tm.RAS)) {
		t.Error("PRE not issuable at tRAS")
	}
	ch.Issue(pre, Cycle(tm.RAS))
	act := Act(0, 0, 4, tm.DefaultClass())
	if ch.CanIssue(act, Cycle(tm.RAS+tm.RP-1)) {
		t.Error("ACT issuable before tRP elapsed")
	}
	if !ch.CanIssue(act, Cycle(tm.RAS+tm.RP)) {
		t.Error("ACT not issuable after tRP")
	}
}

func TestReadDelaysPrechargeByRTP(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 3, tm.DefaultClass()), 0)
	// Read late, so tRTP (not tRAS) is the binding constraint on PRE.
	rdAt := Cycle(tm.RAS)
	ch.Issue(Read(0, 0, 0), rdAt)
	pre := Pre(0, 0)
	if ch.CanIssue(pre, rdAt+Cycle(tm.RTP)-1) {
		t.Error("PRE issuable before tRTP after RD")
	}
	if !ch.CanIssue(pre, rdAt+Cycle(tm.RTP)) {
		t.Error("PRE not issuable at tRTP after RD")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 3, tm.DefaultClass()), 0)
	wrAt := Cycle(tm.RCD)
	ch.Issue(Write(0, 0, 0), wrAt)
	preOK := wrAt + Cycle(tm.CWL+tm.BL+tm.WR)
	pre := Pre(0, 0)
	if ch.CanIssue(pre, preOK-1) {
		t.Error("PRE issuable before write recovery")
	}
	if !ch.CanIssue(pre, preOK) {
		t.Error("PRE not issuable after write recovery")
	}
}

func TestSameBankActToActRespectsRC(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	ch.Issue(Pre(0, 0), Cycle(tm.RAS))
	act := Act(0, 0, 2, tm.DefaultClass())
	// tRC = 39 > tRAS+tRP = 39 here, equal; check boundary via RC.
	if ch.CanIssue(act, Cycle(tm.RC)-1) {
		t.Error("ACT issuable before tRC")
	}
	if !ch.CanIssue(act, Cycle(tm.RC)) {
		t.Error("ACT not issuable at tRC")
	}
}

func TestRRDBetweenBanks(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	act := Act(0, 1, 1, tm.DefaultClass())
	if ch.CanIssue(act, Cycle(tm.RRD)-1) {
		t.Error("ACT to another bank issuable before tRRD")
	}
	if !ch.CanIssue(act, Cycle(tm.RRD)) {
		t.Error("ACT to another bank not issuable at tRRD")
	}
}

func TestFAWLimitsActivates(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	cls := tm.DefaultClass()
	// Issue 4 ACTs as fast as tRRD allows.
	var at Cycle
	for b := 0; b < 4; b++ {
		ch.Issue(Act(0, b, 1, cls), at)
		at += Cycle(tm.RRD)
	}
	// Fifth ACT must wait for the first ACT's tFAW window.
	fifth := Act(0, 4, 1, cls)
	fawReady := Cycle(tm.FAW) // first ACT at cycle 0
	for c := at; c < fawReady; c++ {
		if ch.CanIssue(fifth, c) {
			t.Fatalf("5th ACT issuable at %d inside tFAW window (ends %d)", c, fawReady)
		}
	}
	if !ch.CanIssue(fifth, fawReady) {
		t.Errorf("5th ACT not issuable at end of tFAW window (%d)", fawReady)
	}
}

func TestCCDBetweenReads(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	rd0 := Cycle(tm.RCD)
	ch.Issue(Read(0, 0, 0), rd0)
	rd := Read(0, 0, 1)
	if ch.CanIssue(rd, rd0+Cycle(tm.CCD)-1) {
		t.Error("second RD issuable before tCCD")
	}
	if !ch.CanIssue(rd, rd0+Cycle(tm.CCD)) {
		t.Error("second RD not issuable at tCCD")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	wrAt := Cycle(tm.RCD)
	ch.Issue(Write(0, 0, 0), wrAt)
	rdOK := wrAt + Cycle(tm.CWL+tm.BL+tm.WTR)
	rd := Read(0, 0, 1)
	if ch.CanIssue(rd, rdOK-1) {
		t.Error("RD issuable before tWTR")
	}
	if !ch.CanIssue(rd, rdOK) {
		t.Error("RD not issuable after tWTR")
	}
}

func TestReadToWriteTurnaround(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	rdAt := Cycle(tm.RCD)
	ch.Issue(Read(0, 0, 0), rdAt)
	wr := Write(0, 0, 1)
	wrOK := rdAt + Cycle(tm.RTW)
	if ch.CanIssue(wr, wrOK-1) {
		t.Error("WR issuable before read-to-write turnaround")
	}
	if !ch.CanIssue(wr, wrOK) {
		t.Error("WR not issuable after read-to-write turnaround")
	}
}

func TestRefreshRequiresAllBanksPrecharged(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	ref := Refresh(0)
	if ch.CanIssue(ref, 100) {
		t.Error("REF issuable with a bank open")
	}
	ch.Issue(Pre(0, 0), Cycle(tm.RAS))
	preDone := Cycle(tm.RAS + tm.RP)
	if !ch.CanIssue(ref, preDone) {
		t.Error("REF not issuable with all banks precharged")
	}
	ch.Issue(ref, preDone)
	// During tRFC nothing else can issue to this rank.
	act := Act(0, 0, 1, tm.DefaultClass())
	if ch.CanIssue(act, preDone+Cycle(tm.RFC)-1) {
		t.Error("ACT issuable during tRFC")
	}
	if !ch.CanIssue(act, preDone+Cycle(tm.RFC)) {
		t.Error("ACT not issuable after tRFC")
	}
	// The tRFC window holds every bank's ACT and the next REF, and ends
	// exactly tRFC after the REF.
	end := preDone + Cycle(tm.RFC)
	for b := 0; b < ch.Spec().Geometry.Banks; b++ {
		if got := ch.ActIssueAt(0, b); got != end {
			t.Errorf("ActIssueAt(0, %d) = %d during tRFC, want %d", b, got, end)
		}
	}
	if got := ch.RefIssueAt(0); got != end {
		t.Errorf("RefIssueAt = %d during tRFC, want %d", got, end)
	}
	if ch.CanIssue(ref, end-1) || !ch.CanIssue(ref, end) {
		t.Errorf("REF legal at %d: %v, at %d: %v; want false, true",
			end-1, ch.CanIssue(ref, end-1), end, ch.CanIssue(ref, end))
	}
}

func TestIssueIllegalCommandPanics(t *testing.T) {
	ch := mustChannel(t)
	defer func() {
		if recover() == nil {
			t.Error("Issue of illegal command did not panic")
		}
	}()
	ch.Issue(Read(0, 0, 0), 0) // no row open
}

func TestReadOnClosedBankIllegal(t *testing.T) {
	ch := mustChannel(t)
	if ch.CanIssue(Read(0, 0, 0), 10) {
		t.Error("RD issuable on precharged bank")
	}
	if ch.CanIssue(Pre(0, 0), 10) {
		t.Error("PRE issuable on precharged bank")
	}
}

func TestOpenRowTracking(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	if _, open := ch.OpenRow(0, 0); open {
		t.Error("bank reports open row before any ACT")
	}
	ch.Issue(Act(0, 0, 99, tm.DefaultClass()), 0)
	if row, open := ch.OpenRow(0, 0); !open || row != 99 {
		t.Errorf("OpenRow = (%d,%v), want (99,true)", row, open)
	}
	ch.Issue(Pre(0, 0), Cycle(tm.RAS))
	if _, open := ch.OpenRow(0, 0); open {
		t.Error("bank reports open row after PRE")
	}
}

func TestCommandCounts(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	ch.Issue(Read(0, 0, 0), Cycle(tm.RCD))
	ch.Issue(Write(0, 0, 1), Cycle(tm.RCD+tm.RTW))
	got := ch.Counts()
	if got.ACT != 1 || got.RD != 1 || got.WR != 1 || got.FastACT != 0 {
		t.Errorf("counts = %+v", got)
	}
	if got.RASCycles != uint64(tm.RAS) {
		t.Errorf("RASCycles = %d, want %d", got.RASCycles, tm.RAS)
	}
}

func TestOccupancyAccounting(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	ch.Issue(Pre(0, 0), Cycle(tm.RAS))
	ch.SyncAccounting(100)
	occ := ch.Occupancy()
	if occ.ActiveCycles != Cycle(tm.RAS) {
		t.Errorf("ActiveCycles = %d, want %d", occ.ActiveCycles, tm.RAS)
	}
	if occ.TotalCycles != 100 {
		t.Errorf("TotalCycles = %d, want 100", occ.TotalCycles)
	}
	if occ.RefreshCycles != 0 {
		t.Errorf("RefreshCycles = %d, want 0", occ.RefreshCycles)
	}
}

func TestRefreshOccupancyAccounting(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Refresh(0), 10)
	ch.SyncAccounting(10 + Cycle(tm.RFC) + 50)
	occ := ch.Occupancy()
	if occ.RefreshCycles != Cycle(tm.RFC) {
		t.Errorf("RefreshCycles = %d, want %d", occ.RefreshCycles, tm.RFC)
	}
	if occ.ActiveCycles != 0 {
		t.Errorf("ActiveCycles = %d, want 0", occ.ActiveCycles)
	}
}

func TestDataBusOccupancyBlocksOverlap(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	ch.Issue(Act(0, 0, 1, tm.DefaultClass()), 0)
	ch.Issue(Act(0, 1, 1, tm.DefaultClass()), Cycle(tm.RRD))
	// First read once both banks are past their tRCD.
	rd0 := Cycle(tm.RRD + tm.RCD)
	ch.Issue(Read(0, 0, 0), rd0)
	// A second read on another bank: tCCD (4) equals the burst length, so
	// the bus constraint coincides with tCCD here; verify both hold.
	rd := Read(0, 1, 0)
	if ch.CanIssue(rd, rd0+1) {
		t.Error("overlapping data burst allowed")
	}
	if !ch.CanIssue(rd, rd0+Cycle(tm.CCD)) {
		t.Error("back-to-back burst at tCCD not allowed")
	}
}

func TestCommandStrings(t *testing.T) {
	cls := TimingClass{RCD: 7, RAS: 20}
	cases := []struct {
		cmd  Command
		want string
	}{
		{Act(0, 1, 5, cls), "ACT r0 b1 row5 (tRCD=7 tRAS=20)"},
		{Pre(0, 2), "PRE r0 b2"},
		{Read(1, 3, 9), "RD r1 b3 col9"},
		{Write(0, 0, 0), "WR r0 b0 col0"},
		{Refresh(1), "REF r1"},
	}
	for _, c := range cases {
		if got := c.cmd.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if CmdACT.String() != "ACT" || CommandKind(200).String() == "" {
		t.Error("CommandKind.String misbehaves")
	}
}

func TestReadWriteDataAt(t *testing.T) {
	ch := mustChannel(t)
	tm := ch.Spec().Timing
	if got := ch.ReadDataAt(100); got != 100+Cycle(tm.CL+tm.BL) {
		t.Errorf("ReadDataAt = %d", got)
	}
	if got := ch.WriteDataAt(100); got != 100+Cycle(tm.CWL+tm.BL) {
		t.Errorf("WriteDataAt = %d", got)
	}
}

func TestNewChannelRejectsInvalidSpec(t *testing.T) {
	s := testSpec()
	s.Geometry.Banks = 0
	if _, err := NewChannel(s); err == nil {
		t.Error("NewChannel accepted invalid spec")
	}
}

func TestCanIssueRejectsOutOfRange(t *testing.T) {
	ch := mustChannel(t)
	cls := ch.Spec().Timing.DefaultClass()
	if ch.CanIssue(Act(5, 0, 0, cls), 0) {
		t.Error("ACT to nonexistent rank allowed")
	}
	if ch.CanIssue(Act(0, 99, 0, cls), 0) {
		t.Error("ACT to nonexistent bank allowed")
	}
	if ch.CanIssue(Act(0, 0, 1<<30, cls), 0) {
		t.Error("ACT to nonexistent row allowed")
	}
	ch.Issue(Act(0, 0, 0, cls), 0)
	if ch.CanIssue(Read(0, 0, 1<<20), 50) {
		t.Error("RD to nonexistent column allowed")
	}
}
