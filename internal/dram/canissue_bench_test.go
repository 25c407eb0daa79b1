package dram

import "testing"

// BenchmarkChannelCanIssue measures command-legality checks on a busy
// two-rank channel: the mix probes every command kind against state with
// open rows, recent columns, and a loaded tFAW window, so each check
// exercises the full register set.
func BenchmarkChannelCanIssue(b *testing.B) {
	spec := twoRankSpec()
	ch, err := NewChannel(spec)
	if err != nil {
		b.Fatal(err)
	}
	cls := spec.Timing.DefaultClass()
	// Open a few rows and issue columns to spread state over the
	// registers.
	now := Cycle(0)
	for _, cmd := range []Command{
		Act(0, 0, 5, cls), Act(0, 1, 9, cls), Act(1, 0, 3, cls), Act(1, 2, 7, cls),
	} {
		for !ch.CanIssue(cmd, now) {
			now++
		}
		ch.Issue(cmd, now)
	}
	rd := Read(0, 0, 4)
	for !ch.CanIssue(rd, now) {
		now++
	}
	ch.Issue(rd, now)

	probes := []Command{
		Read(0, 0, 1), Write(0, 1, 2), Act(0, 3, 11, cls), Act(1, 1, 6, cls),
		Pre(0, 0), Pre(1, 0), Read(1, 0, 3), Refresh(1),
	}
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = ch.CanIssue(probes[i&7], now+Cycle(i&15))
	}
	_ = sink
}
