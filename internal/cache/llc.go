// Package cache implements the shared last-level cache of the evaluated
// system (Table 1: 4 MB, 16-way, 64 B lines, LRU) with miss-status
// holding registers (MSHRs) that coalesce misses to the same line and a
// writeback path for dirty evictions.
package cache

import (
	"fmt"

	"repro/internal/prof"
)

// Backend is the memory side of the cache (the memory controllers).
// Both methods report false when the request cannot be accepted this
// cycle (queue full); the caller must retry.
type Backend interface {
	// ReadLine requests a line fill; onDone runs when the line arrives.
	ReadLine(addr uint64, coreID int, onDone func()) bool
	// WriteLine sends a dirty line back to memory.
	WriteLine(addr uint64, coreID int) bool
}

// AccessResult classifies the outcome of an Access call.
type AccessResult uint8

const (
	// Hit means the line was present; the callback fires after the hit
	// latency.
	Hit AccessResult = iota
	// Miss means a fill was issued to memory.
	Miss
	// Coalesced means the access was merged into an in-flight miss.
	Coalesced
	// Retry means the cache could not accept the access this cycle
	// (MSHRs exhausted or memory queue full).
	Retry
)

// String implements fmt.Stringer.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	default:
		return "retry"
	}
}

// Config parameterizes the LLC.
type Config struct {
	SizeBytes  int // total capacity (Table 1: 4 MB)
	Ways       int // associativity (16)
	LineBytes  int // 64
	HitLatency int // CPU cycles from access to data for a hit
	MSHRs      int // distinct outstanding misses
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: size/ways/line must be positive: %+v", c)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if c.HitLatency < 1 || c.MSHRs < 1 {
		return fmt.Errorf("cache: hit latency and MSHRs must be >= 1")
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Coalesced  uint64
	Retries    uint64
	WriteHits  uint64
	WriteFills uint64
	Evictions  uint64
	Writebacks uint64
}

// MPKIDenominator is exported for completeness; MPKI itself is computed
// by the simulator, which knows the instruction counts.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses + s.Coalesced }

// mshrSlot tracks one in-flight line fill. Slots are allocated once
// (Config.MSHRs of them) and recycled, so the miss path allocates at
// most a waiter append; fill is the slot's preallocated completion
// callback handed to the backend.
type mshrSlot struct {
	line        uint64
	idx         int32
	used        bool
	dirtyOnFill bool
	waiters     []func()
	fill        func()
}

// pendingHit is a scheduled hit-latency callback.
type pendingHit struct {
	at int64
	fn func()
}

// LLC is the shared last-level cache. It is driven in CPU-clock cycles
// by a single goroutine (not safe for concurrent use).
type LLC struct {
	cfg  Config
	sets int

	tags  []uint64
	valid []bool
	dirty []bool
	used  []uint64
	tick  uint64

	mshrs []mshrSlot
	// mshrLive lists the indexes of in-use slots, so lookups scan only
	// the live misses (a line appears in at most one slot, so the list
	// order is irrelevant to lookup results).
	mshrLive []int32

	backend Backend

	// hitQueue holds scheduled hit completions ordered by time (hits
	// complete in FIFO order since latency is constant). hitHead is the
	// ring head: delivered entries advance it instead of reslicing, so
	// the buffer is reused once drained.
	hitQueue []pendingHit
	hitHead  int

	// wbBacklog holds dirty-eviction writebacks the backend has not yet
	// accepted, retried every Tick (wbHead as above).
	wbBacklog []uint64
	wbHead    int

	stats         Stats
	wbBacklogPeak int
	now           int64

	// profiler, if set, attributes sampled wall-clock time to Access
	// (see SetProfiler); profDiv converts the LLC's CPU clock to the
	// profiler's bus-cycle domain.
	profiler *prof.Timer
	profDiv  int64
}

// SetProfiler installs the sampled phase timer on Access (nil removes
// it). clockDiv is the CPU-to-bus clock ratio: the LLC runs on the CPU
// clock, while the profiler buckets samples by bus cycle.
func (c *LLC) SetProfiler(t *prof.Timer, clockDiv int) {
	c.profiler = t
	c.profDiv = int64(clockDiv)
	if c.profDiv < 1 {
		c.profDiv = 1
	}
}

// New builds an LLC; cfg must validate and backend must be non-nil.
func New(cfg Config, backend Backend) (*LLC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("cache: backend must be non-nil")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	c := &LLC{
		cfg:     cfg,
		sets:    lines / cfg.Ways,
		tags:    make([]uint64, lines),
		valid:   make([]bool, lines),
		dirty:   make([]bool, lines),
		used:    make([]uint64, lines),
		mshrs:   make([]mshrSlot, cfg.MSHRs),
		backend: backend,
	}
	c.mshrLive = make([]int32, 0, cfg.MSHRs)
	for i := range c.mshrs {
		slot := &c.mshrs[i]
		slot.idx = int32(i)
		slot.fill = func() { c.fillSlot(slot) }
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *LLC) Config() Config { return c.cfg }

// Stats returns the counters.
func (c *LLC) Stats() Stats { return c.stats }

// ResetStats clears counters without touching contents.
func (c *LLC) ResetStats() { c.stats = Stats{} }

// MSHRsInUse returns the number of in-flight distinct misses.
func (c *LLC) MSHRsInUse() int { return len(c.mshrLive) }

// findMSHR returns the in-flight slot for line, or nil.
func (c *LLC) findMSHR(line uint64) *mshrSlot {
	for _, i := range c.mshrLive {
		if c.mshrs[i].line == line {
			return &c.mshrs[i]
		}
	}
	return nil
}

// Pending reports whether fills, scheduled hits or writebacks are
// outstanding.
func (c *LLC) Pending() bool {
	return len(c.mshrLive) > 0 || len(c.hitQueue) > c.hitHead || len(c.wbBacklog) > c.wbHead
}

// NoEvent is NextEvent's "nothing scheduled" sentinel.
const NoEvent = int64(1) << 62

// NextEvent returns the next CPU cycle at which a Tick can change
// state: the earliest scheduled hit delivery (the hit queue is FIFO —
// latency is constant, so the head is the minimum), or the very next
// cycle while backlogged writebacks need retrying against the memory
// controller. In-flight misses need no wake-up of their own: their
// fills arrive through controller completions, which the controllers'
// own event estimates cover.
func (c *LLC) NextEvent() int64 {
	if len(c.wbBacklog) > c.wbHead {
		return c.now + 1
	}
	if len(c.hitQueue) > c.hitHead {
		return c.hitQueue[c.hitHead].at
	}
	return NoEvent
}

func (c *LLC) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

func (c *LLC) setOf(line uint64) int {
	idx := line / uint64(c.cfg.LineBytes)
	// Mix upper bits so strided patterns spread over sets.
	idx ^= idx >> 17
	return int(idx & uint64(c.sets-1))
}

// findLine returns the line index within the set, or -1.
func (c *LLC) findLine(line uint64) int {
	base := c.setOf(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			return i
		}
	}
	return -1
}

// Access performs a read (isWrite false) or a writeback from the upper
// levels (isWrite true) at CPU cycle now. For reads, onDone fires when
// data is available. Writes complete immediately from the core's
// perspective (no callback).
func (c *LLC) Access(now int64, addr uint64, isWrite bool, coreID int, onDone func()) AccessResult {
	if c.profiler != nil {
		pt := c.profiler.Begin(prof.LLCLookup)
		defer c.profiler.End(prof.LLCLookup, pt, now/c.profDiv)
	}
	c.now = now
	line := c.lineAddr(addr)
	if isWrite {
		return c.write(line, coreID)
	}
	return c.read(now, line, coreID, onDone)
}

func (c *LLC) read(now int64, line uint64, coreID int, onDone func()) AccessResult {
	if i := c.findLine(line); i >= 0 {
		c.touch(i)
		c.stats.Hits++
		c.hitQueue = append(c.hitQueue, pendingHit{at: now + int64(c.cfg.HitLatency), fn: onDone})
		return Hit
	}
	if s := c.findMSHR(line); s != nil {
		s.waiters = append(s.waiters, onDone)
		c.stats.Coalesced++
		return Coalesced
	}
	if len(c.mshrLive) >= c.cfg.MSHRs {
		c.stats.Retries++
		return Retry
	}
	var idx int32 = -1
	for i := range c.mshrs {
		if !c.mshrs[i].used {
			idx = int32(i)
			break
		}
	}
	slot := &c.mshrs[idx]
	slot.line = line
	slot.dirtyOnFill = false
	slot.waiters = append(slot.waiters[:0], onDone)
	if !c.backend.ReadLine(line, coreID, slot.fill) {
		c.stats.Retries++
		return Retry
	}
	slot.used = true
	c.mshrLive = append(c.mshrLive, idx)
	c.stats.Misses++
	return Miss
}

// write models an upper-level dirty line arriving: write-allocate without
// a fill read (the full line is being written).
func (c *LLC) write(line uint64, coreID int) AccessResult {
	if i := c.findLine(line); i >= 0 {
		c.touch(i)
		c.dirty[i] = true
		c.stats.WriteHits++
		return Hit
	}
	if s := c.findMSHR(line); s != nil {
		s.dirtyOnFill = true
		c.stats.Coalesced++
		return Coalesced
	}
	c.install(line, true)
	c.stats.WriteFills++
	return Miss
}

// fillSlot completes an in-flight miss: installs the line and wakes
// waiters. The slot is recycled for the next miss.
func (c *LLC) fillSlot(s *mshrSlot) {
	if !s.used {
		return
	}
	s.used = false
	for i, live := range c.mshrLive {
		if live == s.idx {
			last := len(c.mshrLive) - 1
			c.mshrLive[i] = c.mshrLive[last]
			c.mshrLive = c.mshrLive[:last]
			break
		}
	}
	c.install(s.line, s.dirtyOnFill)
	for i, w := range s.waiters {
		if w != nil {
			w()
		}
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// install places line in its set, evicting the LRU victim if needed.
func (c *LLC) install(line uint64, dirty bool) {
	base := c.setOf(line) * c.cfg.Ways
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			// Already present (e.g. write raced a fill): just update.
			c.touch(i)
			c.dirty[i] = c.dirty[i] || dirty
			return
		}
		if !c.valid[i] {
			victim = i
			continue
		}
		if c.valid[victim] && c.used[i] < c.used[victim] {
			victim = i
		}
	}
	if c.valid[victim] {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.enqueueWriteback(c.tags[victim])
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.dirty[victim] = dirty
	c.touch(victim)
}

func (c *LLC) touch(i int) {
	c.tick++
	c.used[i] = c.tick
}

func (c *LLC) enqueueWriteback(line uint64) {
	c.stats.Writebacks++
	if c.backend.WriteLine(line, -1) {
		return
	}
	c.wbBacklog = append(c.wbBacklog, line)
	if len(c.wbBacklog)-c.wbHead > c.wbBacklogPeak {
		c.wbBacklogPeak = len(c.wbBacklog) - c.wbHead
	}
}

// Tick delivers due hit callbacks and retries backlogged writebacks.
func (c *LLC) Tick(now int64) {
	c.now = now
	for c.hitHead < len(c.hitQueue) && c.hitQueue[c.hitHead].at <= now {
		h := c.hitQueue[c.hitHead]
		c.hitQueue[c.hitHead].fn = nil
		c.hitHead++
		if h.fn != nil {
			h.fn()
		}
	}
	if c.hitHead == len(c.hitQueue) {
		c.hitQueue = c.hitQueue[:0]
		c.hitHead = 0
	}
	for c.wbHead < len(c.wbBacklog) {
		if !c.backend.WriteLine(c.wbBacklog[c.wbHead], -1) {
			break
		}
		c.wbHead++
	}
	if c.wbHead == len(c.wbBacklog) {
		c.wbBacklog = c.wbBacklog[:0]
		c.wbHead = 0
	}
}

// WritebackBacklogPeak reports the deepest the writeback backlog got
// (diagnostic; large values indicate an undersized write queue).
func (c *LLC) WritebackBacklogPeak() int { return c.wbBacklogPeak }

// Contents returns the number of valid lines (test helper).
func (c *LLC) Contents() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// DirtyLines returns the number of dirty lines (test helper).
func (c *LLC) DirtyLines() int {
	n := 0
	for i, v := range c.valid {
		if v && c.dirty[i] {
			n++
		}
	}
	return n
}
