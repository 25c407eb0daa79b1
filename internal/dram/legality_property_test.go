package dram

import "testing"

// scanOracle re-derives command legality the way the pre-register-file
// code did: by scanning the full command history and checking every DDR3
// constraint from first principles on each query. It shares no state
// with the incremental next-allowed registers, so agreement across
// randomized command sequences pins the folded registers (tFAW window
// head and refresh folded into rank ACT, refresh into the column and
// REF registers) to the scan-derived answers.
type scanOracle struct {
	spec Spec

	// Per (rank, bank), index rank*banks+bank. Times are issue cycles;
	// the far-negative sentinel means "never".
	lastACT  []Cycle
	lastPRE  []Cycle
	lastRD   []Cycle
	lastWR   []Cycle
	openRow  []int
	isOpen   []bool
	lastRCD  []int
	lastRAS  []int
	rankACTs [][]Cycle // per rank, all ACT issue times (never trimmed)
	lastREF  []Cycle
	rankRD   []Cycle
	rankWR   []Cycle

	busFree Cycle
	busRank int
}

const oracleNever = Cycle(-1) << 40

func newScanOracle(spec Spec) *scanOracle {
	nb := spec.Geometry.Ranks * spec.Geometry.Banks
	nr := spec.Geometry.Ranks
	never := func(n int) []Cycle {
		s := make([]Cycle, n)
		for i := range s {
			s[i] = oracleNever
		}
		return s
	}
	return &scanOracle{
		spec:    spec,
		lastACT: never(nb), lastPRE: never(nb), lastRD: never(nb), lastWR: never(nb),
		openRow: make([]int, nb), isOpen: make([]bool, nb),
		lastRCD: make([]int, nb), lastRAS: make([]int, nb),
		rankACTs: make([][]Cycle, nr),
		lastREF:  never(nr), rankRD: never(nr), rankWR: never(nr),
		busRank: -1,
	}
}

func (o *scanOracle) bankIdx(cmd Command) int {
	return cmd.Rank*o.spec.Geometry.Banks + cmd.Bank
}

// refreshing reports whether the rank is inside a tRFC window at now.
func (o *scanOracle) refreshing(rank int, now Cycle) bool {
	return o.lastREF[rank] != oracleNever && now < o.lastREF[rank]+Cycle(o.spec.Timing.RFC)
}

// minRC is the ACT->ACT window implied by the previous ACT's class.
func (o *scanOracle) minRC(b int) Cycle {
	t := o.spec.Timing
	if o.lastACT[b] == oracleNever {
		return 0
	}
	if t.RCFromClass {
		rc := o.lastRAS[b] + t.RP
		if rc > t.RC {
			rc = t.RC
		}
		return Cycle(rc)
	}
	return Cycle(t.RC)
}

func (o *scanOracle) busLegal(start Cycle, rank int) bool {
	free := o.busFree
	if o.busRank >= 0 && o.busRank != rank {
		free += Cycle(o.spec.Timing.RTRS)
	}
	return start >= free
}

// legal answers CanIssue from the history scan.
func (o *scanOracle) legal(cmd Command, now Cycle) bool {
	t := o.spec.Timing
	b := o.bankIdx(cmd)
	switch cmd.Kind {
	case CmdACT:
		if o.isOpen[b] || o.refreshing(cmd.Rank, now) {
			return false
		}
		if o.lastACT[b] != oracleNever && now-o.lastACT[b] < o.minRC(b) {
			return false
		}
		if o.lastPRE[b] != oracleNever && now-o.lastPRE[b] < Cycle(t.RP) {
			return false
		}
		recent := 0
		for _, at := range o.rankACTs[cmd.Rank] {
			if now-at < Cycle(t.RRD) {
				return false
			}
			if now-at < Cycle(t.FAW) {
				recent++
			}
		}
		return recent < 4
	case CmdPRE:
		if !o.isOpen[b] || o.refreshing(cmd.Rank, now) {
			return false
		}
		if now-o.lastACT[b] < Cycle(o.lastRAS[b]) {
			return false
		}
		if o.lastRD[b] != oracleNever && now-o.lastRD[b] < Cycle(t.RTP) {
			return false
		}
		if o.lastWR[b] != oracleNever && now-o.lastWR[b] < Cycle(t.CWL+t.BL+t.WR) {
			return false
		}
		return true
	case CmdRD, CmdWR:
		if !o.isOpen[b] || o.refreshing(cmd.Rank, now) {
			return false
		}
		if now-o.lastACT[b] < Cycle(o.lastRCD[b]) {
			return false
		}
		if cmd.Kind == CmdRD {
			if o.rankRD[cmd.Rank] != oracleNever && now-o.rankRD[cmd.Rank] < Cycle(t.CCD) {
				return false
			}
			if o.rankWR[cmd.Rank] != oracleNever && now-o.rankWR[cmd.Rank] < Cycle(t.CWL+t.BL+t.WTR) {
				return false
			}
			return o.busLegal(now+Cycle(t.CL), cmd.Rank)
		}
		if o.rankWR[cmd.Rank] != oracleNever && now-o.rankWR[cmd.Rank] < Cycle(t.CCD) {
			return false
		}
		if o.rankRD[cmd.Rank] != oracleNever && now-o.rankRD[cmd.Rank] < Cycle(t.RTW) {
			return false
		}
		return o.busLegal(now+Cycle(t.CWL), cmd.Rank)
	case CmdREF:
		if o.refreshing(cmd.Rank, now) {
			return false
		}
		if o.lastREF[cmd.Rank] != oracleNever && now-o.lastREF[cmd.Rank] < Cycle(t.RFC) {
			return false
		}
		for bank := 0; bank < o.spec.Geometry.Banks; bank++ {
			i := cmd.Rank*o.spec.Geometry.Banks + bank
			if o.isOpen[i] {
				return false
			}
			// Like an internal ACT: past tRP of the precharge and the
			// previous ACT's tRC window.
			if o.lastPRE[i] != oracleNever && now-o.lastPRE[i] < Cycle(t.RP) {
				return false
			}
			if o.lastACT[i] != oracleNever && now-o.lastACT[i] < o.minRC(i) {
				return false
			}
		}
		return true
	}
	return false
}

// observe records an issued command.
func (o *scanOracle) observe(cmd Command, now Cycle) {
	t := o.spec.Timing
	b := o.bankIdx(cmd)
	switch cmd.Kind {
	case CmdACT:
		o.lastACT[b] = now
		o.isOpen[b] = true
		o.openRow[b] = cmd.Row
		o.lastRCD[b] = cmd.Class.RCD
		o.lastRAS[b] = cmd.Class.RAS
		o.rankACTs[cmd.Rank] = append(o.rankACTs[cmd.Rank], now)
		// Only the most recent ACTs can constrain tRRD/tFAW (older ones
		// have aged out of both windows by the spacing they imposed).
		if n := len(o.rankACTs[cmd.Rank]); n > 8 {
			o.rankACTs[cmd.Rank] = o.rankACTs[cmd.Rank][n-8:]
		}
	case CmdPRE:
		o.lastPRE[b] = now
		o.isOpen[b] = false
	case CmdRD:
		o.lastRD[b] = now
		o.rankRD[cmd.Rank] = now
		o.busFree = now + Cycle(t.CL+t.BL)
		o.busRank = cmd.Rank
	case CmdWR:
		o.lastWR[b] = now
		o.rankWR[cmd.Rank] = now
		o.busFree = now + Cycle(t.CWL+t.BL)
		o.busRank = cmd.Rank
	case CmdREF:
		o.lastREF[cmd.Rank] = now
	}
}

// earliestActivate derives the bank's same-bank ACT bound by scanning
// forward from now until the oracle says the ACT is bank-legal,
// ignoring rank-level and refresh constraints (EarliestActivate's
// contract).
func (o *scanOracle) earliestActivate(rank, bank int, now Cycle) Cycle {
	t := o.spec.Timing
	b := rank*o.spec.Geometry.Banks + bank
	at := now
	if o.lastACT[b] != oracleNever && o.lastACT[b]+o.minRC(b) > at {
		at = o.lastACT[b] + o.minRC(b)
	}
	if o.lastPRE[b] != oracleNever && o.lastPRE[b]+Cycle(t.RP) > at {
		at = o.lastPRE[b] + Cycle(t.RP)
	}
	return at
}

// TestLegalityMatchesScanOracle drives a two-rank channel with seeded
// random legal command sequences — ACT-heavy, so the tFAW window is
// under constant pressure — and checks, at every step and for every
// command in a sampled command space, that the incrementally maintained
// next-allowed registers give exactly the scan-derived answer, both
// through CanIssue and through the ready-at reads the scheduler judges
// legality by (ActIssueAt, PreIssueAt, ColumnIssueAt).
func TestLegalityMatchesScanOracle(t *testing.T) {
	for _, seed := range []uint64{3, 17, 4242} {
		spec := twoRankSpec()
		// Shrink tFAW pressure points: a small FAW/RRD ratio makes the
		// four-activate window the binding constraint more often.
		ch, err := NewChannel(spec)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newScanOracle(spec)
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

		now := Cycle(0)
		issued := 0
		for step := 0; step < 4000; step++ {
			// Full agreement over the sampled command space.
			for _, cmd := range candidates {
				got := ch.CanIssue(cmd, now)
				want := oracle.legal(cmd, now)
				if got != want {
					t.Fatalf("seed %d step %d cycle %d: CanIssue(%v) = %v, oracle says %v",
						seed, step, now, cmd, got, want)
				}
			}
			// The scheduler's ready-at reads: for an ACT to a precharged
			// bank, and a PRE/RD/WR to an open one, "IssueAt <= now"
			// must equal the oracle's verdict.
			for _, cmd := range candidates {
				if cmd.Kind == CmdREF {
					continue
				}
				var at Cycle
				_, open := ch.OpenRow(cmd.Rank, cmd.Bank)
				switch {
				case cmd.Kind == CmdACT && !open:
					at = ch.ActIssueAt(cmd.Rank, cmd.Bank)
				case cmd.Kind == CmdPRE && open:
					at = ch.PreIssueAt(cmd.Rank, cmd.Bank)
				case (cmd.Kind == CmdRD || cmd.Kind == CmdWR) && open:
					at = ch.ColumnIssueAt(cmd.Rank, cmd.Bank, cmd.Kind == CmdRD)
				default:
					continue
				}
				if got, want := at <= now, oracle.legal(cmd, now); got != want {
					t.Fatalf("seed %d step %d cycle %d: %v ready at %d (legal %v), oracle says %v",
						seed, step, now, cmd, at, got, want)
				}
			}
			for r := 0; r < spec.Geometry.Ranks; r++ {
				for b := 0; b < spec.Geometry.Banks; b++ {
					if got, want := ch.EarliestActivate(r, b), oracle.earliestActivate(r, b, 0); got != want {
						t.Fatalf("seed %d step %d: EarliestActivate(%d,%d) = %d, oracle %d",
							seed, step, r, b, got, want)
					}
				}
			}
			// Issue a random legal command to churn the state, biased
			// toward ACTs to stress tFAW.
			tried := 0
			for ; tried < 12; tried++ {
				cmd := candidates[next(len(candidates))]
				if cmd.Kind != CmdACT && next(3) == 0 {
					continue // bias toward activates
				}
				if ch.CanIssue(cmd, now) {
					ch.Issue(cmd, now)
					oracle.observe(cmd, now)
					issued++
					break
				}
			}
			// Advance time with small steps so constraint expiries are
			// observed cycle by cycle around their flips.
			now += Cycle(1 + next(4))
		}
		if issued < 500 {
			t.Fatalf("seed %d: only %d commands issued; sequence not exercising the registers", seed, issued)
		}
	}
}
