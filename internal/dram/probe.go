package dram

// CommandProbe observes every command a channel issues, for the opt-in
// perf-analyzer (internal/analysis). It is distinct from the tracer
// hook (SetTracer, used by the protocol checker) so instrumentation and
// checking can coexist.
//
// Implementations must only observe: the channel calls the probe with
// pre-apply register state and ignores anything it does. For ACT
// commands, fawStall is the number of cycles the rank's tFAW window
// head extended beyond the bank's own tRC/tRP readiness (0 when the
// window was not full or not binding) — a deterministic attribution of
// four-activate-window pressure read off the legality registers — and
// fast reports that the command carries a lowered timing class. Both
// are zero/false for every other command kind.
type CommandProbe interface {
	ObserveCommand(cmd Command, now, fawStall Cycle, fast bool)
}

// SetProbe installs p to observe every issued command (nil removes it).
// The probe costs one nil check per issue when absent.
func (c *Channel) SetProbe(p CommandProbe) { c.probe = p }

// observe fires the command probe with the pre-apply stall attribution
// for ACTs. Called from Issue before any register is advanced.
//
//ccsim:zeroalloc
func (c *Channel) observe(cmd Command, now Cycle) {
	var stall Cycle
	fast := false
	if cmd.Kind == CmdACT {
		r := &c.ranks[cmd.Rank]
		if r.actWindowLen == 4 {
			if head := r.actWindow[0]; head > r.banks[cmd.Bank].nextACT {
				stall = head - r.banks[cmd.Bank].nextACT
			}
		}
		fast = cmd.Class.Lowers(c.spec.Timing.DefaultClass())
	}
	c.probe.ObserveCommand(cmd, now, stall, fast)
}
