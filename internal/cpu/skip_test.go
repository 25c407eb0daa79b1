package cpu

import (
	"fmt"
	"testing"
)

// The cycle-skipping contract (SkipBudget / RunAhead / AdvanceIdle)
// promises bit-identical evolution to per-cycle Tick calls. This test
// drives three cores from the same trace against the same scripted
// memory: the reference is ticked every cycle; the skipping twin runs a
// miniature event loop that jumps wherever SkipBudget allows, bounded
// by the next scheduled load completion; the lazy twin is driven only
// through Wake/Due/Step/Settle, like a core of the simulator's event
// engine, so its data returns land inside skipped gaps.

// scriptMem completes loads a fixed number of cycles after issue.
type scriptMem struct {
	delay   int64
	pending []scriptEvent
	stores  int
}

type scriptEvent struct {
	at int64
	fn func()
}

func (m *scriptMem) Load(addr uint64, coreID int, done func()) bool {
	m.pending = append(m.pending, scriptEvent{at: -1, fn: done}) // stamped by caller
	return true
}

func (m *scriptMem) Store(addr uint64, coreID int) bool {
	m.stores++
	return true
}

// stamp assigns the issue cycle to loads issued during the current
// cycle (Load does not know the clock).
func (m *scriptMem) stamp(now int64) {
	for i := range m.pending {
		if m.pending[i].at < 0 {
			m.pending[i].at = now + m.delay
		}
	}
}

// deliver fires completions due at now (after the core ticked, like the
// LLC's hit queue).
func (m *scriptMem) deliver(now int64) {
	for _, fn := range m.take(now) {
		fn()
	}
}

// take removes and returns, in issue order, the completions due at now.
func (m *scriptMem) take(now int64) []func() {
	var due []func()
	kept := m.pending[:0]
	for _, ev := range m.pending {
		if ev.at >= 0 && ev.at <= now {
			due = append(due, ev.fn)
		} else {
			kept = append(kept, ev)
		}
	}
	m.pending = kept
	return due
}

// nextEvent returns the earliest scheduled completion, or max.
func (m *scriptMem) nextEvent(max int64) int64 {
	next := max
	for _, ev := range m.pending {
		if ev.at >= 0 && ev.at < next {
			next = ev.at
		}
	}
	return next
}

// seqTrace is a deterministic pseudo-random record stream; two
// instances with the same seed produce the same records.
type seqTrace struct{ state uint64 }

func (s *seqTrace) Next() TraceRecord {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return TraceRecord{
		Bubbles:      int(s.state % 23),
		Addr:         s.state & 0xffffff,
		HasWriteback: s.state%5 == 0,
		WBAddr:       (s.state >> 8) & 0xffffff,
	}
}

// coreState renders the state a skipped cycle can change, for
// comparing twins.
func coreState(c *Core) string {
	return fmt.Sprintf("retired=%d cycles=%d stallFull=%d stallMSHRs=%d loads=%d stores=%d window=%d head=%d tail=%d inFlight=%d",
		c.retired, c.cycles, c.stallFull, c.stallMSHRs, c.loadsSent, c.storesSent, c.count, c.head, c.tail, c.inFlight)
}

func TestSkipTrioMatchesPerCycleTick(t *testing.T) {
	var pureGapReturns, blockedGapReturns int
	for _, delay := range []int64{1, 7, 26, 140, 500} {
		for seed := uint64(1); seed <= 5; seed++ {
			// Scrambled so that every trace opens with a bubble run:
			// a fresh core's empty window must be planned right.
			state := seed * 0x9E3779B97F4A7C15
			const horizon = 30_000
			const target = ^uint64(0) >> 1
			// The lazy twin's window target, crossed mid-run.
			lazyTarget := 1_000 * seed

			// Reference: tick every cycle. The lazy twin runs in
			// lockstep with it, stepped only on its due cycles.
			refMem := &scriptMem{delay: delay}
			ref, err := New(DefaultConfig(0), &seqTrace{state: state}, refMem)
			if err != nil {
				t.Fatal(err)
			}
			lazyMem := &scriptMem{delay: delay}
			lazy, err := New(DefaultConfig(0), &seqTrace{state: state}, lazyMem)
			if err != nil {
				t.Fatal(err)
			}
			var clock int64
			lazy.Wake(&clock, lazyTarget)
			refCross, lazyCross := int64(-1), int64(-1)
			for ; clock < horizon; clock++ {
				ref.Tick()
				refMem.stamp(clock)
				if refCross < 0 && ref.Retired() >= lazyTarget {
					refCross = clock
				}
				if due := lazy.Due(); due < clock {
					t.Fatalf("delay %d seed %d: cycle %d passed due cycle %d", delay, seed, clock, due)
				} else if due == clock {
					before := lazy.Retired()
					lazy.Step()
					if before < lazyTarget && lazy.Retired() >= lazyTarget {
						lazyCross = clock
					}
				}
				lazyMem.stamp(clock)
				refDue, lazyDue := refMem.take(clock), lazyMem.take(clock)
				if len(refDue) != len(lazyDue) {
					t.Fatalf("delay %d seed %d cycle %d: %d data returns, lazy twin %d",
						delay, seed, clock, len(refDue), len(lazyDue))
				}
				for i := range refDue {
					if lazy.at <= clock {
						if lazy.gapBlocked {
							blockedGapReturns++
						} else {
							pureGapReturns++
						}
					}
					before := lazy.Retired()
					refDue[i]()
					lazyDue[i]()
					if before < lazyTarget && lazy.Retired() >= lazyTarget {
						t.Fatalf("delay %d seed %d cycle %d: a data return carried retired %d -> %d across target %d",
							delay, seed, clock, before, lazy.Retired(), lazyTarget)
					}
					if r, l := coreState(ref), coreState(lazy); r != l {
						t.Fatalf("delay %d seed %d cycle %d: lazy twin diverged at a data return:\n ref  %s\n lazy %s",
							delay, seed, clock, r, l)
					}
				}
			}
			lazy.Settle(horizon)
			if r, l := coreState(ref), coreState(lazy); r != l {
				t.Fatalf("delay %d seed %d: lazy twin diverged by the end:\n ref  %s\n lazy %s", delay, seed, r, l)
			}
			if refCross < 0 || lazyCross != refCross {
				t.Fatalf("delay %d seed %d: target %d crossed at cycle %d, lazy twin stepped across it at %d",
					delay, seed, lazyTarget, refCross, lazyCross)
			}

			// Skipping twin: execute, then jump as far as allowed.
			evtMem := &scriptMem{delay: delay}
			evt, err := New(DefaultConfig(0), &seqTrace{state: state}, evtMem)
			if err != nil {
				t.Fatal(err)
			}
			for now := int64(0); now < horizon; {
				evt.Tick()
				evtMem.stamp(now)
				evtMem.deliver(now)
				now++
				bulk := evtMem.nextEvent(horizon) - now
				if bulk <= 0 {
					continue
				}
				blocked, pure := evt.SkipBudget(target, bulk)
				switch {
				case blocked:
					evt.AdvanceIdle(bulk)
				case pure > 0:
					if pure < bulk {
						bulk = pure
					}
					evt.RunAhead(bulk)
				default:
					continue
				}
				now += bulk
			}
			if r, e := coreState(ref), coreState(evt); r != e {
				t.Fatalf("delay %d seed %d: skipping twin diverged:\n ref %s\n evt %s", delay, seed, r, e)
			}
		}
	}
	if pureGapReturns == 0 || blockedGapReturns == 0 {
		t.Fatalf("data returns inside pure gaps %d, inside blocked gaps %d: want both exercised",
			pureGapReturns, blockedGapReturns)
	}
}

// TestSkipBudgetTargetClamp checks a jump can never carry retirement
// across the measurement target: crossings must happen on executed
// cycles, where the engine records them.
func TestSkipBudgetTargetClamp(t *testing.T) {
	mem := &scriptMem{delay: 1_000_000} // loads never return
	c, err := New(DefaultConfig(0), &seqTrace{state: 99}, mem)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 5_000; now++ {
		target := c.Retired() + 4 // always just ahead
		blocked, pure := c.SkipBudget(target, 1<<30)
		if !blocked && pure > 0 {
			before := c.Retired()
			c.RunAhead(pure)
			if c.Retired() >= target {
				t.Fatalf("cycle %d: RunAhead(%d) carried retired %d -> %d past target %d",
					now, pure, before, c.Retired(), target)
			}
		} else {
			c.Tick()
			mem.stamp(now)
		}
	}
}
