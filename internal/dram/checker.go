package dram

import "fmt"

// Checker is an independent DDR3 protocol validator: it re-derives every
// inter-command constraint from first principles (its own command
// history, deliberately structured differently from the channel's
// next-allowed registers, and derived from Timing alone) and reports a
// violation for any command that a real device would reject. One rule
// set (check) answers both Legal, a query, and Observe, which checks
// each issued command and then records it. Attach Observe to a Channel
// with SetTracer and it validates the full command stream; tests use it
// to cross-check the timing engine against arbitrary controller
// behaviour.
//
// The inter-command timing constraints are data: ddr3Rules holds one
// row per datasheet constraint. The bank-state rules, the tFAW window
// and the data bus are the only constraints written as code.
type Checker struct {
	spec Spec

	banks []bankHistory // index rank*banks+bank
	ranks []rankHistory

	// The data bus: the end of the last burst and the rank it served.
	busFree Cycle
	busRank int

	violations []string
}

// bankHistory is the Checker's record of one bank.
type bankHistory struct {
	last  [numCommandKinds]Cycle // last issue time per command kind
	class TimingClass            // timing class of the last ACT
	open  bool
	row   int
}

// rankHistory is the Checker's record of one rank.
type rankHistory struct {
	last [numCommandKinds]Cycle // last issue time per command kind
	acts [4]Cycle               // the four most recent ACTs, oldest first
}

// ruleScope says whose history a rule's previous command is read from.
type ruleScope uint8

const (
	sameBank  ruleScope = iota // the command's own bank
	sameRank                   // any bank of the command's rank
	everyBank                  // each bank of the rank in turn (REF)
)

// anyKind, as a rule's next kind, matches every command.
const anyKind = numCommandKinds

// rule is one DDR3 timing constraint: a command of kind next may not
// issue less than gap cycles after a command of kind prev within scope.
// gap reads the spec timing and the timing class of the bank's last
// ACT, because tRCD, tRAS and tRC are per activation.
type rule struct {
	name       string
	prev, next CommandKind
	scope      ruleScope
	gap        func(t *Timing, act TimingClass) int
}

// ddr3Rules is the DDR3 inter-command timing table.
var ddr3Rules = []rule{
	{"tRCD", CmdACT, CmdRD, sameBank, func(_ *Timing, act TimingClass) int { return act.RCD }},
	{"tRCD", CmdACT, CmdWR, sameBank, func(_ *Timing, act TimingClass) int { return act.RCD }},
	{"tRAS", CmdACT, CmdPRE, sameBank, func(_ *Timing, act TimingClass) int { return act.RAS }},
	{"tRC", CmdACT, CmdACT, sameBank, minRC},
	{"tRP", CmdPRE, CmdACT, sameBank, func(t *Timing, _ TimingClass) int { return t.RP }},
	{"tRTP", CmdRD, CmdPRE, sameBank, func(t *Timing, _ TimingClass) int { return t.RTP }},
	{"tWR", CmdWR, CmdPRE, sameBank, func(t *Timing, _ TimingClass) int { return t.CWL + t.BL + t.WR }},
	{"tRRD", CmdACT, CmdACT, sameRank, func(t *Timing, _ TimingClass) int { return t.RRD }},
	{"tCCD", CmdRD, CmdRD, sameRank, func(t *Timing, _ TimingClass) int { return t.CCD }},
	{"tCCD", CmdWR, CmdWR, sameRank, func(t *Timing, _ TimingClass) int { return t.CCD }},
	{"tWTR", CmdWR, CmdRD, sameRank, func(t *Timing, _ TimingClass) int { return t.CWL + t.BL + t.WTR }},
	{"tRTW", CmdRD, CmdWR, sameRank, func(t *Timing, _ TimingClass) int { return t.RTW }},
	// Only NOPs may issue to a rank inside its tRFC window.
	{"tRFC", CmdREF, anyKind, sameRank, func(t *Timing, _ TimingClass) int { return t.RFC }},
	// REF activates rows internally: every bank must be past its
	// precharge and previous activate windows, like an ACT would be.
	{"tRP", CmdPRE, CmdREF, everyBank, func(t *Timing, _ TimingClass) int { return t.RP }},
	{"tRC", CmdACT, CmdREF, everyBank, minRC},
}

// minRC returns the ACT-to-ACT minimum implied by an ACT of class act
// under the spec's tRC policy.
func minRC(t *Timing, act TimingClass) int {
	if t.RCFromClass {
		return min(act.RAS+t.RP, t.RC)
	}
	return t.RC
}

// NewChecker builds a checker for spec.
func NewChecker(spec Spec) *Checker {
	c := &Checker{
		spec:    spec,
		banks:   make([]bankHistory, spec.Geometry.Ranks*spec.Geometry.Banks),
		ranks:   make([]rankHistory, spec.Geometry.Ranks),
		busFree: never, busRank: -1,
	}
	var last [numCommandKinds]Cycle
	for k := range last {
		last[k] = never
	}
	for i := range c.banks {
		c.banks[i].last = last
	}
	for i := range c.ranks {
		c.ranks[i] = rankHistory{last: last, acts: [4]Cycle{never, never, never, never}}
	}
	return c
}

// never stands for "no such command yet": far enough in the past that
// every gap measured from it passes.
const never Cycle = -1 << 40

// Violations returns the violations recorded so far.
func (c *Checker) Violations() []string {
	return append([]string(nil), c.violations...)
}

// Legal reports whether cmd may issue at cycle now, given the commands
// observed so far.
func (c *Checker) Legal(cmd Command, now Cycle) bool {
	legal := true
	c.check(cmd, now, func(string, ...any) { legal = false })
	return legal
}

// Observe validates one issued command, then records it. Call it from a
// Channel tracer.
func (c *Checker) Observe(cmd Command, now Cycle) {
	c.check(cmd, now, func(format string, args ...any) {
		c.violations = append(c.violations,
			fmt.Sprintf("cycle %d %v: %s", now, cmd, fmt.Sprintf(format, args...)))
	})
	c.record(cmd, now)
}

// check calls report once for every DDR3 constraint that cmd at now
// violates.
func (c *Checker) check(cmd Command, now Cycle, report func(format string, args ...any)) {
	t := &c.spec.Timing
	rankBanks := c.banks[cmd.Rank*c.spec.Geometry.Banks : (cmd.Rank+1)*c.spec.Geometry.Banks]
	rank := &c.ranks[cmd.Rank]
	bank := &rankBanks[cmd.Bank]

	// Bank state: ACT needs a closed bank, PRE and column commands an
	// open one, REF every bank of the rank closed.
	switch cmd.Kind {
	case CmdACT:
		if bank.open {
			report("ACT on open bank (row %d)", bank.row)
		}
	case CmdPRE, CmdRD, CmdWR:
		if !bank.open {
			report("%v on closed bank", cmd.Kind)
			return
		}
	case CmdREF:
		for i := range rankBanks {
			if rankBanks[i].open {
				report("REF with bank %d open", i)
			}
		}
	}

	for i := range ddr3Rules {
		r := &ddr3Rules[i]
		if r.next != cmd.Kind && r.next != anyKind {
			continue
		}
		scoped := rankBanks[cmd.Bank : cmd.Bank+1]
		if r.scope == everyBank {
			scoped = rankBanks
		}
		for _, h := range scoped {
			last := h.last[r.prev]
			if r.scope == sameRank {
				last = rank.last[r.prev]
			}
			if since, gap := now-last, r.gap(t, h.class); since < Cycle(gap) {
				report("%s violated: %d cycles after %v, needs %d", r.name, since, r.prev, gap)
			}
		}
	}

	switch cmd.Kind {
	case CmdACT:
		// At most four ACTs per rank in any tFAW window.
		if since := now - rank.acts[0]; since < Cycle(t.FAW) {
			report("tFAW violated: 5th ACT %d cycles after 4-back", since)
		}
	case CmdRD, CmdWR:
		// The data burst may not overlap the previous one, and a burst
		// from another rank waits tRTRS more for the bus to switch.
		start := now + Cycle(t.CL)
		if cmd.Kind == CmdWR {
			start = now + Cycle(t.CWL)
		}
		if c.busRank >= 0 && c.busRank != cmd.Rank {
			if free := c.busFree + Cycle(t.RTRS); start < free {
				report("tRTRS violated: burst at %d, bus free at %d", start, free)
			}
		} else if start < c.busFree {
			report("data bus overlap: burst at %d, bus free at %d", start, c.busFree)
		}
	}
}

// record applies an issued command to the history.
func (c *Checker) record(cmd Command, now Cycle) {
	t := &c.spec.Timing
	rank := &c.ranks[cmd.Rank]
	rank.last[cmd.Kind] = now
	if cmd.Kind == CmdREF {
		return
	}
	bank := &c.banks[cmd.Rank*c.spec.Geometry.Banks+cmd.Bank]
	bank.last[cmd.Kind] = now
	switch cmd.Kind {
	case CmdACT:
		bank.open, bank.row, bank.class = true, cmd.Row, cmd.Class
		copy(rank.acts[:], rank.acts[1:])
		rank.acts[3] = now
	case CmdPRE:
		bank.open = false
	case CmdRD:
		c.busFree, c.busRank = now+Cycle(t.CL+t.BL), cmd.Rank
	case CmdWR:
		c.busFree, c.busRank = now+Cycle(t.CWL+t.BL), cmd.Rank
	}
}
