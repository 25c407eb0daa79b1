package dram

import (
	"strings"
	"testing"
)

func TestCheckerAcceptsLegalSequence(t *testing.T) {
	spec := testSpec()
	ch, _ := NewChannel(spec)
	chk := NewChecker(spec)
	ch.SetTracer(chk.Observe)

	tm := spec.Timing
	cls := tm.DefaultClass()
	ch.Issue(Act(0, 0, 1, cls), 0)
	ch.Issue(Read(0, 0, 0), Cycle(tm.RCD))
	ch.Issue(Pre(0, 0), Cycle(tm.RAS))
	ch.Issue(Act(0, 0, 2, cls), Cycle(tm.RC))
	ch.Issue(Write(0, 0, 0), Cycle(tm.RC+tm.RCD))

	if v := chk.Violations(); len(v) != 0 {
		t.Errorf("violations on legal sequence: %v", v)
	}
}

// TestCheckerFlagsViolations covers the bank-state rules; the timing
// constraints are pinned by TestCheckerRuleBoundaries.
func TestCheckerFlagsViolations(t *testing.T) {
	spec := twoRankSpec()
	tm := spec.Timing
	cls := tm.DefaultClass()
	cases := []struct {
		name string
		feed func(c *Checker)
		want string
	}{
		{"REF with open bank", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Refresh(0), Cycle(tm.RAS+tm.RP))
		}, "open"},
		{"column on closed bank", func(c *Checker) {
			c.Observe(Read(0, 0, 0), 10)
		}, "closed"},
		{"double ACT", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Act(0, 0, 2, cls), Cycle(tm.RC))
		}, "open bank"},
		{"PRE on closed bank", func(c *Checker) {
			c.Observe(Pre(0, 0), 10)
		}, "closed"},
	}
	for _, tc := range cases {
		chk := NewChecker(spec)
		tc.feed(chk)
		v := chk.Violations()
		if len(v) == 0 {
			t.Errorf("%s: no violation flagged", tc.name)
			continue
		}
		found := false
		for _, msg := range v {
			if strings.Contains(msg, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v do not mention %q", tc.name, v, tc.want)
		}
	}
}

func TestCheckerAcceptsReducedClassUnderDerivedRC(t *testing.T) {
	spec := testSpec() // RCFromClass = true
	chk := NewChecker(spec)
	fast := TimingClass{RCD: 7, RAS: 18}
	tm := spec.Timing
	chk.Observe(Act(0, 0, 1, fast), 0)
	chk.Observe(Read(0, 0, 0), 7)
	chk.Observe(Pre(0, 0), 18)
	chk.Observe(Act(0, 0, 2, fast), Cycle(18+tm.RP)) // derived tRC = 18+11
	if v := chk.Violations(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}

	// Under fixed tRC the same reopen is illegal.
	fixed := spec
	fixed.Timing.RCFromClass = false
	chk2 := NewChecker(fixed)
	chk2.Observe(Act(0, 0, 1, fast), 0)
	chk2.Observe(Pre(0, 0), 18)
	chk2.Observe(Act(0, 0, 2, fast), Cycle(18+tm.RP))
	if len(chk2.Violations()) == 0 {
		t.Error("fixed-tRC checker accepted early reopen")
	}

	// So is a REF there (refresh activates rows internally), and the
	// channel agrees.
	chk3 := NewChecker(fixed)
	ch, _ := NewChannel(fixed)
	ch.SetTracer(chk3.Observe)
	ch.Issue(Act(0, 0, 1, fast), 0)
	ch.Issue(Pre(0, 0), 18)
	ref, at := Refresh(0), Cycle(18+tm.RP)
	if chk3.Legal(ref, at) || ch.CanIssue(ref, at) {
		t.Errorf("fixed tRC: REF at %d legal to checker %v, channel %v", at, chk3.Legal(ref, at), ch.CanIssue(ref, at))
	}
	if at = Cycle(tm.RC); !chk3.Legal(ref, at) || !ch.CanIssue(ref, at) {
		t.Errorf("fixed tRC: REF at %d legal to checker %v, channel %v", at, chk3.Legal(ref, at), ch.CanIssue(ref, at))
	}
}

// TestChannelNeverViolatesChecker drives the channel as fast as CanIssue
// allows with a randomized command mix and asserts the independent
// checker never objects — the two implementations must agree.
func TestChannelNeverViolatesChecker(t *testing.T) {
	spec := testSpec()
	ch, _ := NewChannel(spec)
	chk := NewChecker(spec)
	ch.SetTracer(chk.Observe)

	rng := uint64(99)
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	fast := TimingClass{RCD: 7, RAS: 18}
	issued := 0
	for now := Cycle(0); now < 200_000 && issued < 20_000; now++ {
		bankID := next(spec.Geometry.Banks)
		var cmd Command
		switch next(10) {
		case 0, 1:
			cls := spec.Timing.DefaultClass()
			if next(2) == 0 {
				cls = fast
			}
			cmd = Act(0, bankID, next(64), cls)
		case 2, 3, 4:
			cmd = Read(0, bankID, next(spec.Geometry.Columns))
		case 5, 6:
			cmd = Write(0, bankID, next(spec.Geometry.Columns))
		case 7, 8:
			cmd = Pre(0, bankID)
		default:
			cmd = Refresh(0)
		}
		if ch.CanIssue(cmd, now) {
			ch.Issue(cmd, now)
			issued++
		}
	}
	if issued < 1000 {
		t.Fatalf("stress issued only %d commands", issued)
	}
	if v := chk.Violations(); len(v) != 0 {
		t.Errorf("checker found %d violations, first: %s", len(v), v[0])
	}
}

// TestCheckerRuleBoundaries pins every DDR3 timing constraint the
// Checker enforces at its exact boundary: the later command, issued one
// cycle before the gap has elapsed since the earlier one, is flagged
// under the constraint's name; issued exactly at the gap, it is legal.
// The constraints and their gaps are listed here from the datasheet
// definitions in Timing, independently of the Checker's rule table, and
// each case isolates its constraint so no other one binds at the gap.
func TestCheckerRuleBoundaries(t *testing.T) {
	type timed struct {
		cmd Command
		at  Cycle
	}
	for _, rcFromClass := range []bool{true, false} {
		spec := twoRankSpec()
		spec.Timing.RCFromClass = rcFromClass
		tm := spec.Timing
		cls := tm.DefaultClass()
		fast := TimingClass{RCD: tm.RCD - 4, RAS: tm.RAS - 8}
		// An ACT of the fast class holds its bank (and REF) for tRC,
		// or, under the derived policy, only for its own tRAS + tRP.
		fastRC := tm.RC
		if rcFromClass {
			fastRC = min(tm.RC, fast.RAS+tm.RP)
		}
		late := Cycle(tm.RC + 10) // every same-bank window of an ACT at 0 has passed
		cases := []struct {
			name   string
			before []timed // observed in order; the last is the constraint's earlier command
			from   Cycle   // issue cycle the gap is measured from
			gap    int
			next   Command
		}{
			{"tRCD", []timed{{Act(0, 0, 1, cls), 0}}, 0, tm.RCD, Read(0, 0, 0)},
			{"tRCD", []timed{{Act(0, 0, 1, cls), 0}}, 0, tm.RCD, Write(0, 0, 0)},
			{"tRCD", []timed{{Act(0, 0, 1, fast), 0}}, 0, fast.RCD, Read(0, 0, 0)},
			{"tRAS", []timed{{Act(0, 0, 1, cls), 0}}, 0, tm.RAS, Pre(0, 0)},
			{"tRAS", []timed{{Act(0, 0, 1, fast), 0}}, 0, fast.RAS, Pre(0, 0)},
			{"tRC", []timed{{Act(0, 0, 1, fast), 0}, {Pre(0, 0), Cycle(fast.RAS)}}, 0, fastRC, Act(0, 0, 2, cls)},
			{"tRP", []timed{{Act(0, 0, 1, cls), 0}, {Pre(0, 0), late}}, late, tm.RP, Act(0, 0, 2, cls)},
			{"tRTP", []timed{{Act(0, 0, 1, cls), 0}, {Read(0, 0, 0), late}}, late, tm.RTP, Pre(0, 0)},
			{"tWR", []timed{{Act(0, 0, 1, cls), 0}, {Write(0, 0, 0), late}}, late, tm.CWL + tm.BL + tm.WR, Pre(0, 0)},
			{"tRRD", []timed{{Act(0, 0, 1, cls), 0}}, 0, tm.RRD, Act(0, 1, 1, cls)},
			{"tFAW", []timed{{Act(0, 0, 1, cls), 0}, {Act(0, 1, 1, cls), Cycle(tm.RRD)},
				{Act(0, 2, 1, cls), Cycle(2 * tm.RRD)}, {Act(0, 3, 1, cls), Cycle(3 * tm.RRD)}}, 0, tm.FAW, Act(0, 4, 1, cls)},
			{"tCCD", []timed{{Act(0, 0, 1, cls), 0}, {Act(0, 1, 1, cls), late}, {Read(0, 0, 0), late + Cycle(tm.RCD)}},
				late + Cycle(tm.RCD), tm.CCD, Read(0, 1, 0)},
			{"tCCD", []timed{{Act(0, 0, 1, cls), 0}, {Act(0, 1, 1, cls), late}, {Write(0, 0, 0), late + Cycle(tm.RCD)}},
				late + Cycle(tm.RCD), tm.CCD, Write(0, 1, 0)},
			{"tWTR", []timed{{Act(0, 0, 1, cls), 0}, {Write(0, 0, 0), late}}, late, tm.CWL + tm.BL + tm.WTR, Read(0, 0, 1)},
			{"tRTW", []timed{{Act(0, 0, 1, cls), 0}, {Read(0, 0, 0), late}}, late, tm.RTW, Write(0, 0, 1)},
			{"tRFC", []timed{{Refresh(0), 0}}, 0, tm.RFC, Act(0, 0, 1, cls)},
			{"tRFC", []timed{{Refresh(0), 0}}, 0, tm.RFC, Refresh(0)},
			// REF waits for every bank, not only bank 0.
			{"tRP", []timed{{Act(0, 3, 1, cls), 0}, {Pre(0, 3), late}}, late, tm.RP, Refresh(0)},
			{"tRC", []timed{{Act(0, 3, 1, fast), 0}, {Pre(0, 3), Cycle(fast.RAS)}}, 0, fastRC, Refresh(0)},
			// The data bus: one burst (BL) per rank, plus tRTRS to
			// switch ranks; a read burst starts CL after its command.
			{"data bus overlap", []timed{{Act(0, 0, 1, cls), 0}, {Act(0, 1, 1, cls), late}, {Read(0, 0, 0), late + Cycle(tm.RCD)}},
				late + Cycle(tm.RCD), tm.BL, Read(0, 1, 0)},
			{"tRTRS", []timed{{Act(0, 0, 1, cls), 0}, {Act(1, 0, 1, cls), 0}, {Read(0, 0, 0), late}},
				late, tm.BL + tm.RTRS, Read(1, 0, 0)},
			// A write burst starts CWL after its command.
			{"tRTRS", []timed{{Act(0, 0, 1, cls), 0}, {Act(1, 0, 1, cls), 0}, {Read(0, 0, 0), late}},
				late, tm.CL + tm.BL + tm.RTRS - tm.CWL, Write(1, 0, 0)},
		}
		for _, tc := range cases {
			for _, delta := range []Cycle{-1, 0} {
				chk := NewChecker(spec)
				for _, c := range tc.before {
					chk.Observe(c.cmd, c.at)
				}
				if v := chk.Violations(); len(v) != 0 {
					t.Fatalf("rcFromClass=%v %s: setup flagged: %v", rcFromClass, tc.name, v)
				}
				at := tc.from + Cycle(tc.gap) + delta
				legal := chk.Legal(tc.next, at)
				chk.Observe(tc.next, at)
				flagged := false
				for _, msg := range chk.Violations() {
					flagged = flagged || strings.Contains(msg, ": "+tc.name+" violated") ||
						strings.Contains(msg, ": "+tc.name+":")
				}
				switch {
				case delta < 0 && !flagged:
					t.Errorf("rcFromClass=%v %s: %v at gap-1 (cycle %d) not flagged under %s: %v",
						rcFromClass, tc.name, tc.next, at, tc.name, chk.Violations())
				case delta == 0 && !legal:
					t.Errorf("rcFromClass=%v %s: %v at exactly the gap (cycle %d) flagged: %v",
						rcFromClass, tc.name, tc.next, at, chk.Violations())
				}
			}
		}
	}
}
