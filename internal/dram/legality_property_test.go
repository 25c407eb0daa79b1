package dram

import (
	"fmt"
	"testing"
)

// checkerEarliestActivate derives the bank's same-bank ACT bound (the
// tRC window of its last ACT and the tRP window of its last PRE; rank
// constraints excluded, EarliestActivate's contract) from the Checker's
// command history.
func checkerEarliestActivate(chk *Checker, rank, bank int) Cycle {
	t := &chk.spec.Timing
	h := &chk.banks[rank*chk.spec.Geometry.Banks+bank]
	return max(0, h.last[CmdACT]+Cycle(minRC(t, h.class)), h.last[CmdPRE]+Cycle(t.RP))
}

// TestLegalityMatchesChecker drives a two-rank channel with seeded random
// legal command sequences — ACT-heavy, so the tFAW window is under
// constant pressure — and checks, at every step and for every command in
// a sampled command space, that the incrementally maintained
// next-allowed registers give exactly the independent Checker's answer,
// both through CanIssue and through the ready-at reads the scheduler and
// the refresh preparation judge legality by (ActIssueAt, PreIssueAt,
// ColumnIssueAt, RefIssueAt).
func TestLegalityMatchesChecker(t *testing.T) {
	for _, seed := range []uint64{3, 17, 4242} {
		for _, rcFromClass := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/rcFromClass=%v", seed, rcFromClass), func(t *testing.T) {
				testLegalityMatchesChecker(t, seed, rcFromClass)
			})
		}
	}
}

// testLegalityMatchesChecker runs one seeded sequence under one tRC
// policy: derived from the ACT's class, or the spec's fixed tRC (under
// which a reduced-class ACT still holds its bank, and REF, for tRC).
func testLegalityMatchesChecker(t *testing.T, seed uint64, rcFromClass bool) {
	spec := twoRankSpec()
	spec.Timing.RCFromClass = rcFromClass
	ch, err := NewChannel(spec)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(spec)
	ch.SetTracer(chk.Observe)
	rng := seed
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	cls := spec.Timing.DefaultClass()
	fast := TimingClass{RCD: spec.Timing.RCD - 4, RAS: spec.Timing.RAS - 8}

	// candidates samples the command space: every bank gets ACT/PRE
	// plus column commands; REF per rank.
	var candidates []Command
	for r := 0; r < spec.Geometry.Ranks; r++ {
		candidates = append(candidates, Refresh(r))
		for b := 0; b < spec.Geometry.Banks; b++ {
			candidates = append(candidates,
				Act(r, b, (r+b)%spec.Geometry.Rows, cls),
				Act(r, b, (r+b+1)%spec.Geometry.Rows, fast),
				Pre(r, b),
				Read(r, b, b%spec.Geometry.Columns),
				Write(r, b, (b+1)%spec.Geometry.Columns))
		}
	}
	allClosed := func(rank int) bool {
		for b := 0; b < spec.Geometry.Banks; b++ {
			if _, open := ch.OpenRow(rank, b); open {
				return false
			}
		}
		return true
	}

	now := Cycle(0)
	issued, refs := 0, 0
	for step := 0; step < 4000; step++ {
		for _, cmd := range candidates {
			want := chk.Legal(cmd, now)
			if got := ch.CanIssue(cmd, now); got != want {
				t.Fatalf("seed %d step %d cycle %d: CanIssue(%v) = %v, checker says %v",
					seed, step, now, cmd, got, want)
			}
			// The ready-at reads: for an ACT to a precharged bank, a
			// PRE/RD/WR to an open one, and a REF to a rank with every
			// bank closed, "IssueAt <= now" must equal the verdict.
			var at Cycle
			_, open := ch.OpenRow(cmd.Rank, cmd.Bank)
			switch {
			case cmd.Kind == CmdREF && allClosed(cmd.Rank):
				at = ch.RefIssueAt(cmd.Rank)
			case cmd.Kind == CmdACT && !open:
				at = ch.ActIssueAt(cmd.Rank, cmd.Bank)
			case cmd.Kind == CmdPRE && open:
				at = ch.PreIssueAt(cmd.Rank, cmd.Bank)
			case (cmd.Kind == CmdRD || cmd.Kind == CmdWR) && open:
				at = ch.ColumnIssueAt(cmd.Rank, cmd.Bank, cmd.Kind == CmdRD)
			default:
				continue
			}
			if got := at <= now; got != want {
				t.Fatalf("seed %d step %d cycle %d: %v ready at %d (legal %v), checker says %v",
					seed, step, now, cmd, at, got, want)
			}
		}
		for r := 0; r < spec.Geometry.Ranks; r++ {
			for b := 0; b < spec.Geometry.Banks; b++ {
				if got, want := ch.EarliestActivate(r, b), checkerEarliestActivate(chk, r, b); got != want {
					t.Fatalf("seed %d step %d: EarliestActivate(%d,%d) = %d, checker %d",
						seed, step, r, b, got, want)
				}
			}
		}
		// Issue a random legal command to churn the state: mostly
		// biased toward ACTs to stress tFAW, but in every fifth
		// stretch of 100 steps only PREs and REFs, so ranks close all
		// their banks and REF legality flips are observed too.
		refreshPhase := step%500 >= 400
		for tried := 0; tried < 12; tried++ {
			cmd := candidates[next(len(candidates))]
			if refreshPhase && cmd.Kind != CmdPRE && cmd.Kind != CmdREF {
				continue
			}
			if !refreshPhase && cmd.Kind != CmdACT && next(3) == 0 {
				continue // bias toward activates
			}
			if ch.CanIssue(cmd, now) {
				ch.Issue(cmd, now)
				issued++
				if cmd.Kind == CmdREF {
					refs++
				}
				break
			}
		}
		// Advance time with small steps so constraint expiries are
		// observed cycle by cycle around their flips.
		now += Cycle(1 + next(4))
	}
	if issued < 500 || refs == 0 {
		t.Fatalf("seed %d: %d commands and %d REFs issued; sequence not exercising the registers", seed, issued, refs)
	}
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("seed %d: checker found %d violations, first: %s", seed, len(v), v[0])
	}
}
