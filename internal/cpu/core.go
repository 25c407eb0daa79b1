// Package cpu implements the trace-driven processor core of the
// evaluated system (Table 1): 3-wide issue, a 128-entry instruction
// window, and 8 MSHRs per core, clocked at 4 GHz.
//
// Cores consume trace records in Ramulator's cpu-trace shape: a number of
// non-memory "bubble" instructions, a load address, and an optional
// writeback address. Bubbles retire at up to the issue width per cycle;
// loads occupy a window slot until their data returns from the cache
// hierarchy; writebacks are sent to the memory system without occupying
// the window.
package cpu

import (
	"fmt"
	"math"
)

// TraceRecord is one unit of work: Bubbles non-memory instructions
// followed by one load, optionally paired with a writeback that models a
// dirty line displaced from the upper-level caches by the load's fill.
type TraceRecord struct {
	Bubbles int
	Addr    uint64

	HasWriteback bool
	WBAddr       uint64
}

// TraceReader produces an endless stream of trace records. Generators in
// package workload implement it.
type TraceReader interface {
	Next() TraceRecord
}

// MemPort is the core's connection to the cache hierarchy. Both methods
// report false when the access cannot be accepted this cycle; the core
// retries on the next cycle.
type MemPort interface {
	// Load issues a read for addr; done runs when data is available.
	Load(addr uint64, coreID int, done func()) bool
	// Store issues a writeback for addr (fire and forget).
	Store(addr uint64, coreID int) bool
}

// Config parameterizes a core.
type Config struct {
	ID         int
	Width      int // instructions issued and retired per cycle (3)
	WindowSize int // reorder-window entries (128)
	MSHRs      int // outstanding loads (8)
}

// DefaultConfig returns the Table 1 core parameters.
func DefaultConfig(id int) Config {
	return Config{ID: id, Width: 3, WindowSize: 128, MSHRs: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.WindowSize <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cpu: width/window/MSHRs must be positive: %+v", c)
	}
	return nil
}

// slot states within the instruction window.
const (
	slotDone    uint8 = iota // retired-ready (bubble, or load whose data arrived)
	slotWaiting              // load waiting for data
)

// Core is one trace-driven processor core. Not safe for concurrent use.
type Core struct {
	cfg   Config
	trace TraceReader
	mem   MemPort

	window []uint8 // ring buffer of slot states
	head   int     // oldest entry
	tail   int     // next free entry
	count  int

	inFlight int // loads outstanding (<= MSHRs)

	// Current trace record being issued. The record is fetched eagerly
	// (at construction and immediately after its predecessor's load
	// issues), which consumes the trace in exactly the same order as
	// lazy fetching but lets SkipBudget see bubble runs without a
	// stateful peek.
	rec         TraceRecord
	bubblesLeft int
	loadPending bool
	wbPending   bool

	// slotDone callbacks, one per window slot, allocated once so load
	// issue does not allocate a closure per access.
	onData []func()

	// Lazy clock (see Wake); clock is nil while the core is ticked
	// eagerly. at is the first cycle not yet applied to the core's
	// state, due the next cycle that needs a Tick (NoDue while blocked),
	// and gapBlocked tells whether the cycles in between are blocked
	// (AdvanceIdle) or pure (RunAhead) ones.
	clock      *int64
	target     uint64
	at         int64
	due        int64
	gapBlocked bool

	retired    uint64
	cycles     uint64
	stallFull  uint64 // cycles fully stalled with a full window
	stallMSHRs uint64 // issue stops due to MSHR exhaustion
	loadsSent  uint64
	storesSent uint64
}

// New builds a core reading from trace and accessing memory through mem.
func New(cfg Config, trace TraceReader, mem MemPort) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trace == nil || mem == nil {
		return nil, fmt.Errorf("cpu: trace and mem must be non-nil")
	}
	c := &Core{
		cfg:    cfg,
		trace:  trace,
		mem:    mem,
		window: make([]uint8, cfg.WindowSize),
		onData: make([]func(), cfg.WindowSize),
	}
	for i := range c.onData {
		idx := i
		c.onData[i] = func() {
			if c.clock == nil {
				c.window[idx] = slotDone
				c.inFlight--
				return
			}
			// Data arrives after the core phase of cycle *clock, so
			// that cycle still ran on the old state.
			c.Settle(*c.clock + 1)
			c.window[idx] = slotDone
			c.inFlight--
			c.plan()
		}
	}
	c.nextRecord()
	return c, nil
}

// nextRecord pulls the next trace record into the issue stage.
func (c *Core) nextRecord() {
	c.rec = c.trace.Next()
	c.bubblesLeft = c.rec.Bubbles
	c.loadPending = true
	c.wbPending = c.rec.HasWriteback
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.cfg.ID }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retired }

// Cycles returns the number of executed cycles.
func (c *Core) Cycles() uint64 { return c.cycles }

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.cycles)
}

// LoadsSent returns the number of loads issued to the memory hierarchy.
func (c *Core) LoadsSent() uint64 { return c.loadsSent }

// StoresSent returns the number of writebacks issued.
func (c *Core) StoresSent() uint64 { return c.storesSent }

// StallCycles returns cycles in which the window was full and nothing
// retired (a pure memory stall).
func (c *Core) StallCycles() uint64 { return c.stallFull }

// ResetStats zeroes retired/cycle counters (after warm-up) while leaving
// the pipeline state intact.
func (c *Core) ResetStats() {
	c.retired = 0
	c.cycles = 0
	c.stallFull = 0
	c.stallMSHRs = 0
	c.loadsSent = 0
	c.storesSent = 0
}

// Tick advances the core by one CPU cycle: retire up to Width completed
// instructions in order, then issue up to Width new ones.
func (c *Core) Tick() {
	c.cycles++

	retiredThis := 0
	for retiredThis < c.cfg.Width && c.count > 0 && c.window[c.head] == slotDone {
		c.head++
		if c.head == len(c.window) {
			c.head = 0
		}
		c.count--
		c.retired++
		retiredThis++
	}

	if c.count == len(c.window) && retiredThis == 0 {
		c.stallFull++
		return
	}

	for issued := 0; issued < c.cfg.Width; issued++ {
		if !c.issueOne() {
			break
		}
	}
}

// issueOne tries to issue the next instruction; it reports whether
// anything was issued.
func (c *Core) issueOne() bool {
	if c.count == len(c.window) {
		return false
	}
	if c.bubblesLeft > 0 {
		c.pushSlot(slotDone)
		c.bubblesLeft--
		return true
	}
	// The record's writeback goes out alongside its load; retry until
	// the memory system accepts it, before issuing the load.
	if c.wbPending {
		if !c.mem.Store(c.rec.WBAddr, c.cfg.ID) {
			return false
		}
		c.wbPending = false
		c.storesSent++
	}
	if c.loadPending {
		if c.inFlight >= c.cfg.MSHRs {
			c.stallMSHRs++
			return false
		}
		idx := c.tail
		c.pushSlot(slotWaiting)
		if !c.mem.Load(c.rec.Addr, c.cfg.ID, c.onData[idx]) {
			c.popSlot()
			return false
		}
		c.inFlight++
		c.loadsSent++
		c.nextRecord()
		return true
	}
	// Record had no load component (not produced by current generators,
	// but legal): consume it.
	c.nextRecord()
	return true
}

func (c *Core) pushSlot(state uint8) {
	c.window[c.tail] = state
	c.tail++
	if c.tail == len(c.window) {
		c.tail = 0
	}
	c.count++
}

func (c *Core) popSlot() {
	c.tail--
	if c.tail < 0 {
		c.tail = len(c.window) - 1
	}
	c.count--
}

// Cycle skipping
//
// The event-driven engine (internal/sim) advances simulated time in
// jumps. SkipBudget reports how far the core can jump, and AdvanceIdle /
// RunAhead apply a jump with state and counters bit-identical to the
// same number of Tick calls. A caller of these three bounds each jump
// by the next load data return; the lazy clock below (Wake) lets a data
// return land inside a skipped gap instead.

// SkipBudget classifies the core's next-cycle behaviour for the
// event-driven engine.
//
// blocked means the core provably cannot change architectural state
// without an external load completion: its window is full behind a
// waiting load, or its next instruction is a load and every MSHR is in
// flight. The engine may skip any number of such cycles (AdvanceIdle).
//
// Otherwise pure is the number of upcoming cycles (possibly 0) that are
// provably internal: every cycle issues a full width of bubbles and —
// when the window head is completed — retires a full width, never
// touching the memory port. The engine may fast-forward up to pure
// cycles (RunAhead). Cycles beyond the budget (partial-width
// boundaries, record fetches, load/writeback issue, retries after a
// rejected access) must run through Tick.
//
// target is the retirement goal of the current measurement window: the
// budget is clamped so retirement can never reach target inside a jump,
// keeping target crossings on ticked cycles where the engine observes
// them, exactly like the reference stepper. max caps the answer (a
// caller bounding the jump by its external-event horizon needs no
// look-ahead beyond it).
func (c *Core) SkipBudget(target uint64, max int64) (blocked bool, pure int64) {
	headDone := c.count > 0 && c.window[c.head] == slotDone
	if !headDone {
		if c.count == len(c.window) {
			return true, 0 // full window behind a waiting load
		}
		if c.bubblesLeft == 0 && !c.wbPending && c.loadPending &&
			c.inFlight >= c.cfg.MSHRs {
			return true, 0 // next instruction is a load; MSHRs exhausted
		}
	}
	if c.bubblesLeft < c.cfg.Width {
		return false, 0
	}
	w := c.cfg.Width
	pure = int64(c.bubblesLeft / w)
	if pure > max {
		pure = max
	}
	switch {
	case c.count == 0:
		// Empty window, which only a core that has not ticked yet
		// has: its first Tick starts the flow that retires from the
		// next cycle on.
		return false, 0
	case !headDone:
		// Head is a waiting load: no retirement, issue-only until the
		// window fills.
		free := int64((len(c.window) - c.count) / w)
		if free < pure {
			pure = free
		}
	case c.inFlight == 0:
		// Every occupied slot is completed: full-width flow as long as
		// at least a width can retire each cycle.
		if c.count < w {
			return false, 0
		}
	default:
		// Completed run at the head with waiting loads behind it:
		// full-width flow until retirement reaches the first waiting
		// slot.
		run := int64(c.doneRun(int(pure)*w) / w)
		if run < pure {
			pure = run
		}
	}
	if pure > 0 && c.retired < target {
		headroom := int64(target-c.retired-1) / int64(w)
		if headroom < pure {
			pure = headroom
		}
	}
	return false, pure
}

// doneRun counts consecutive completed slots from the head, up to max.
func (c *Core) doneRun(max int) int {
	if max > c.count {
		max = c.count
	}
	i := c.head
	n := 0
	for n < max && c.window[i] == slotDone {
		n++
		i++
		if i == len(c.window) {
			i = 0
		}
	}
	return n
}

// AdvanceIdle accounts k skipped cycles on a blocked core (see
// SkipBudget): the reference stepper would have spent each of them
// incrementing the cycle counter and one stall counter.
func (c *Core) AdvanceIdle(k int64) {
	c.cycles += uint64(k)
	if c.count == len(c.window) {
		c.stallFull += uint64(k)
	} else {
		c.stallMSHRs += uint64(k)
	}
}

// RunAhead fast-forwards k pure cycles (k must not exceed the pure
// budget SkipBudget reported with the core in its current state). Each
// cycle issues Width bubbles and, when the head run is completed,
// retires Width instructions — the bulk equivalent of k Ticks.
func (c *Core) RunAhead(k int64) {
	w := c.cfg.Width
	n := int(k) * w
	c.cycles += uint64(k)
	c.bubblesLeft -= n
	retiring := c.count > 0 && c.window[c.head] == slotDone
	// Mark the n issued slots completed in at most two contiguous
	// stretches (slotDone is the zero value, so these compile to
	// memclr). n can exceed the window size in steady full-width flow
	// (retire and issue pass over every slot); the ring then ends up
	// all-completed.
	size := len(c.window)
	if n >= size {
		for i := range c.window {
			c.window[i] = slotDone
		}
	} else {
		first := n
		if c.tail+first > size {
			first = size - c.tail
			rest := c.window[:n-first]
			for i := range rest {
				rest[i] = slotDone
			}
		}
		seg := c.window[c.tail : c.tail+first]
		for i := range seg {
			seg[i] = slotDone
		}
	}
	c.tail = (c.tail + n) % size
	if retiring {
		c.retired += uint64(n)
		c.head = (c.head + n) % size
	} else {
		c.count += n
	}
}

// NoDue is Due's answer for a core blocked on memory: only a load data
// return can make it due again.
const NoDue int64 = math.MaxInt64

// Lazy clock
//
// The event engine keeps one clock per core and ticks a core
// only on the cycles where it can act. Wake starts the core's clock at
// the engine's master clock, which the core only reads; Due reports the
// next cycle that needs a Tick, the engine calls Step on that cycle, and
// Settle brings the core up to a given cycle. The skipped cycles are
// applied in bulk (AdvanceIdle or RunAhead, as SkipBudget classified
// them) only when something touches the core: a Step, a Settle, or a
// load data return. A data return fires during the LLC or controller
// phase of cycle *clock, after that cycle's core phase, so it applies
// the gap through *clock, marks its slot and plans again.
//
// Because SkipBudget clamps pure gaps below target, retirement crosses
// target only inside a Step, where the engine checks it. Between Wake
// and the final Settle the core is driven only through Step and Settle.

// Wake starts the lazy clock at *clock for a window whose retirement
// goal is target. The core's state must be current for cycle *clock:
// fresh, or settled there.
//
//ccsim:zeroalloc
func (c *Core) Wake(clock *int64, target uint64) {
	c.clock = clock
	c.target = target
	c.at = *clock
	c.plan()
}

// Due returns the next cycle the core needs a Step, or NoDue.
//
//ccsim:zeroalloc
func (c *Core) Due() int64 { return c.due }

// Step runs cycle *clock, which must not lie past Due: it applies the
// skipped cycles before it, ticks, and plans the next gap.
//
//ccsim:zeroalloc
func (c *Core) Step() {
	c.Settle(*c.clock)
	c.Tick()
	c.at++
	c.plan()
}

// Settle applies the skipped cycles before t, which must not lie past
// Due.
//
//ccsim:zeroalloc
func (c *Core) Settle(t int64) {
	k := t - c.at
	if k <= 0 {
		return
	}
	if c.gapBlocked {
		c.AdvanceIdle(k)
	} else {
		c.RunAhead(k)
	}
	c.at = t
}

// plan classifies the cycles from at on and sets due.
//
//ccsim:zeroalloc
func (c *Core) plan() {
	blocked, pure := c.SkipBudget(c.target, NoDue)
	c.gapBlocked = blocked
	if blocked {
		c.due = NoDue
	} else {
		c.due = c.at + pure
	}
}

// WindowOccupancy returns the number of occupied window slots.
func (c *Core) WindowOccupancy() int { return c.count }

// InFlightLoads returns the number of loads awaiting data.
func (c *Core) InFlightLoads() int { return c.inFlight }
