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

func TestCheckerFlagsViolations(t *testing.T) {
	spec := twoRankSpec()
	tm := spec.Timing
	cls := tm.DefaultClass()
	cases := []struct {
		name string
		feed func(c *Checker)
		want string
	}{
		{"early RD", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Read(0, 0, 0), Cycle(tm.RCD-1))
		}, "tRCD"},
		{"early PRE", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Pre(0, 0), Cycle(tm.RAS-1))
		}, "tRAS"},
		{"early reACT", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Pre(0, 0), Cycle(tm.RAS))
			c.Observe(Act(0, 0, 2, cls), Cycle(tm.RC-1))
		}, "tR"}, // tRC or tRP, both under tR
		{"RRD", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Act(0, 1, 1, cls), Cycle(tm.RRD-1))
		}, "tRRD"},
		{"FAW", func(c *Checker) {
			at := Cycle(0)
			for b := 0; b < 4; b++ {
				c.Observe(Act(0, b, 1, cls), at)
				at += Cycle(tm.RRD)
			}
			c.Observe(Act(0, 4, 1, cls), Cycle(tm.FAW-1))
		}, "tFAW"},
		{"CCD", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Read(0, 0, 0), Cycle(tm.RCD))
			c.Observe(Read(0, 0, 1), Cycle(tm.RCD+tm.CCD-1))
		}, "tCCD"},
		{"WTR", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Write(0, 0, 0), Cycle(tm.RCD))
			c.Observe(Read(0, 0, 1), Cycle(tm.RCD+tm.CWL+tm.BL+tm.WTR-1))
		}, "tWTR"},
		{"write recovery", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Write(0, 0, 0), Cycle(tm.RCD))
			c.Observe(Pre(0, 0), Cycle(tm.RCD+tm.CWL+tm.BL+tm.WR-1))
		}, "tWR"},
		{"RTP", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Read(0, 0, 0), Cycle(tm.RAS))
			c.Observe(Pre(0, 0), Cycle(tm.RAS+tm.RTP-1))
		}, "tRTP"},
		{"REF with open bank", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Refresh(0), Cycle(tm.RAS+tm.RP))
		}, "open"},
		{"ACT during RFC", func(c *Checker) {
			c.Observe(Refresh(0), 0)
			c.Observe(Act(0, 0, 1, cls), Cycle(tm.RFC-1))
		}, "tRFC"},
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
		{"cross-rank RD inside BL+tRTRS", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Act(1, 0, 1, cls), 1)
			c.Observe(Read(0, 0, 0), Cycle(tm.RCD))
			c.Observe(Read(1, 0, 0), Cycle(tm.RCD+tm.BL+tm.RTRS-1))
		}, "tRTRS"},
		{"cross-rank WR after RD inside BL+tRTRS", func(c *Checker) {
			c.Observe(Act(0, 0, 1, cls), 0)
			c.Observe(Act(1, 0, 1, cls), 1)
			c.Observe(Read(0, 0, 0), Cycle(tm.RCD))
			// The write burst starts CWL after the command; the read's
			// ends CL+BL after its own.
			c.Observe(Write(1, 0, 0), Cycle(tm.RCD+tm.CL+tm.BL+tm.RTRS-tm.CWL-1))
		}, "tRTRS"},
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
