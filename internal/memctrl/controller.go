package memctrl

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/prof"
)

// Observer receives row-level command events, used by the RLTL analysis
// (Figures 3 and 4) without coupling the controller to the stats package.
type Observer interface {
	// ObserveActivate fires when an ACT issues. refreshAge is the time
	// since the activated row's last refresh; fast reports whether the
	// activation used a lowered timing class.
	ObserveActivate(channel int, key core.RowKey, now, refreshAge dram.Cycle, fast bool)
	// ObservePrecharge fires when a PRE (or refresh-forced PRE) closes
	// the row identified by key.
	ObservePrecharge(channel int, key core.RowKey, now dram.Cycle)
}

// Config parameterizes one per-channel controller.
type Config struct {
	Spec    dram.Spec
	Channel int // channel index served by this controller

	ReadQueueCap  int // Table 1: 64
	WriteQueueCap int // Table 1: 64

	RowPolicy RowPolicy

	// Write drain watermarks: the controller switches to draining writes
	// when the write queue reaches WriteHigh and back to reads at
	// WriteLow (or when the read queue is empty).
	WriteHigh int
	WriteLow  int

	// Mechanism chooses the activation timing class (package core).
	Mechanism core.Mechanism

	// Observer, if non-nil, receives ACT/PRE events.
	Observer Observer

	// Probe, if non-nil, receives perf-analyzer events (queue-depth
	// samples, row outcomes); see probe.go. The hot path
	// pays one nil check per event when unset.
	Probe Probe

	// Profiler, if non-nil, attributes sampled wall-clock time to the
	// controller's phases (enqueue, FR-FCFS select, completion drain);
	// see internal/prof. Like Probe, unset costs one nil check per
	// crossing. Completion-drain time includes the nested request
	// callbacks (they run inside the drain).
	Profiler *prof.Timer
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Channel < 0 || c.Channel >= c.Spec.Geometry.Channels {
		return fmt.Errorf("memctrl: channel %d out of range", c.Channel)
	}
	if c.Spec.Geometry.Ranks > maxRanks {
		return fmt.Errorf("memctrl: %d ranks exceed the supported maximum %d",
			c.Spec.Geometry.Ranks, maxRanks)
	}
	if c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0 {
		return fmt.Errorf("memctrl: queue capacities must be positive")
	}
	if c.WriteHigh <= c.WriteLow || c.WriteHigh > c.WriteQueueCap {
		return fmt.Errorf("memctrl: bad drain watermarks low=%d high=%d cap=%d",
			c.WriteLow, c.WriteHigh, c.WriteQueueCap)
	}
	if c.Mechanism == nil {
		return fmt.Errorf("memctrl: mechanism must be set")
	}
	return nil
}

// latencyBuckets is the number of read-latency histogram buckets; each
// bucket is latencyBucketWidth controller cycles wide, the last bucket
// collects the tail.
const (
	latencyBuckets     = 64
	latencyBucketWidth = 8
)

// maxRanks bounds per-tick stack scratch (DDR3 DIMMs top out at 4
// ranks; the specs in this repo use 1 or 2).
const maxRanks = 8

// Stats aggregates controller-level counters.
type Stats struct {
	ReadsServed  uint64
	WritesServed uint64

	// ReadLatencySum accumulates (completion - arrival) over served
	// reads, in controller cycles.
	ReadLatencySum uint64

	// ReadLatencyHist is a fixed-width histogram of read latencies
	// (bucket i covers [i*8, i*8+8) cycles; the last bucket is open).
	ReadLatencyHist [latencyBuckets]uint64

	Activations     uint64
	FastActivations uint64

	// Row-buffer outcomes, one per request, fixed by the first command
	// issued on its behalf: a column command (the row was already open)
	// is a hit, an ACT (the bank was precharged) a miss, a PRE (another
	// row was open) a conflict.
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64

	Refreshes uint64
}

// AvgReadLatency returns the mean read latency in controller cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.ReadsServed == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsServed)
}

// ReadLatencyPercentile returns an upper bound on the p-quantile
// (0 < p <= 1) of read latency in controller cycles, from the histogram.
func (s Stats) ReadLatencyPercentile(p float64) float64 {
	if s.ReadsServed == 0 || p <= 0 {
		return 0
	}
	target := uint64(p * float64(s.ReadsServed))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range s.ReadLatencyHist {
		seen += n
		if seen >= target {
			return float64((i + 1) * latencyBucketWidth)
		}
	}
	return float64(latencyBuckets * latencyBucketWidth)
}

// RowHitRate returns the fraction of counted row outcomes that were
// hits.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// completion is a scheduled read-data delivery.
type completion struct {
	at  dram.Cycle
	req *Request
}

// Controller schedules requests for one channel using FR-FCFS: ready
// column (row-hit) commands first, then the oldest request's next
// required command. Refresh has priority over everything; writes are
// serviced in drain mode governed by queue watermarks.
//
// Requests are queued per (rank, bank); arrival sequence numbers
// recover the global FCFS order. Each scheduling pass visits only the
// banks with queued work (a bitmask per kind), takes each bank's single
// candidate, and picks the oldest among the banks whose next-allowed
// registers have expired — identical decisions to a flat-queue walk,
// without touching requests that cannot make progress this cycle.
type Controller struct {
	cfg Config
	ch  *dram.Channel

	banks      []bankQ // per (rank, bank), index rank*banks+bank
	readBanks  bankSet // banks with queued reads
	writeBanks bankSet // banks with queued writes
	nReads     int
	nWrites    int
	nextSeq    uint64 // next arrival sequence number

	drain bool

	refresh []*refreshEngine // per rank

	// closeIntent marks banks the closed-row policy wants to precharge
	// once no queued request wants their open row (indexed
	// rank*banks+bank): set when a column command serves the last queued
	// request for the row, cleared by whichever PRE closes the bank.
	// closeIntents counts the marks so the event scan knows precharge
	// work may be outstanding.
	closeIntent  []bool
	closeIntents int

	// completions is a FIFO ring (reads complete in issue order):
	// compHead is advanced on delivery and the buffer reused once
	// drained, so steady-state operation does not allocate.
	completions []completion
	compHead    int

	// dirty records that a request arrived since the last Tick, so the
	// cached NextEvent estimate no longer bounds the next state change.
	dirty bool
	// nextWake is the event estimate computed on demand after the last
	// Tick; needScan marks it stale (see NextEvent). Keeping the scan
	// lazy means the reference stepper, which never asks, never pays
	// for it; keeping a still-future estimate across no-op ticks means
	// the event engine rescans only after actual controller activity.
	nextWake dram.Cycle
	needScan bool
	scanFrom dram.Cycle

	// schedEpoch increments whenever the inputs of nextIssueTime can
	// have changed: a command issued (registers, bank states, close
	// intents, drain mode) or a request arrived (queues).
	// Completion deliveries leave them untouched, so delivery ticks
	// reuse the cached value.
	schedEpoch     uint64
	issueTimeEpoch uint64
	issueTimeCache dram.Cycle

	stats Stats
	now   dram.Cycle
}

// NewController builds a controller and its channel device.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch, err := dram.NewChannel(cfg.Spec)
	if err != nil {
		return nil, err
	}
	nb := cfg.Spec.Geometry.BanksPerChannel()
	c := &Controller{
		cfg:         cfg,
		ch:          ch,
		banks:       make([]bankQ, nb),
		readBanks:   newBankSet(nb),
		writeBanks:  newBankSet(nb),
		closeIntent: make([]bool, nb),
	}
	for r := 0; r < cfg.Spec.Geometry.Ranks; r++ {
		c.refresh = append(c.refresh, newRefreshEngine(cfg.Spec, cfg.Channel, r))
	}
	return c, nil
}

// Channel exposes the underlying DRAM channel (counts, occupancy).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// Stats returns the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats clears counters (after warm-up). Queue contents and DRAM
// state are preserved.
func (c *Controller) ResetStats() { c.stats = Stats{} }

// Mechanism returns the latency mechanism in use.
func (c *Controller) Mechanism() core.Mechanism { return c.cfg.Mechanism }

// QueuedReads returns the current read queue depth.
func (c *Controller) QueuedReads() int { return c.nReads }

// QueuedWrites returns the current write queue depth.
func (c *Controller) QueuedWrites() int { return c.nWrites }

// Pending reports whether any request is queued or awaiting completion.
func (c *Controller) Pending() bool {
	return c.nReads > 0 || c.nWrites > 0 || len(c.completions) > c.compHead
}

// bankIndex maps a request's coordinates to its bank queue index.
func (c *Controller) bankIndex(coord Coord) int {
	return coord.Rank*c.cfg.Spec.Geometry.Banks + coord.Bank
}

// EnqueueRead adds a read request; it reports false when the queue is
// full (the caller must retry later). The request's DRAM coordinates
// must be in range for the spec (the address mapper guarantees this).
func (c *Controller) EnqueueRead(req *Request) bool {
	if c.nReads >= c.cfg.ReadQueueCap {
		return false
	}
	var pt int64
	if c.cfg.Profiler != nil {
		pt = c.cfg.Profiler.Begin(prof.Enqueue)
		defer c.cfg.Profiler.End(prof.Enqueue, pt, int64(c.now))
	}
	req.Arrive = c.now
	req.seq = c.nextSeq
	c.nextSeq++
	idx := c.bankIndex(req.Coord)
	c.banks[idx].reads.push(req)
	c.readBanks.set(idx)
	c.nReads++
	c.dirty = true
	c.schedEpoch++
	if c.cfg.Probe != nil {
		bq := &c.banks[idx]
		c.cfg.Probe.ObserveEnqueue(req.Coord, true,
			len(bq.reads.q), len(bq.writes.q), c.nReads, c.nWrites, c.now)
	}
	return true
}

// EnqueueWrite adds a write request; it reports false when full.
func (c *Controller) EnqueueWrite(req *Request) bool {
	if c.nWrites >= c.cfg.WriteQueueCap {
		return false
	}
	var pt int64
	if c.cfg.Profiler != nil {
		pt = c.cfg.Profiler.Begin(prof.Enqueue)
		defer c.cfg.Profiler.End(prof.Enqueue, pt, int64(c.now))
	}
	req.Arrive = c.now
	req.seq = c.nextSeq
	c.nextSeq++
	idx := c.bankIndex(req.Coord)
	c.banks[idx].writes.push(req)
	c.writeBanks.set(idx)
	c.nWrites++
	c.dirty = true
	c.schedEpoch++
	if c.cfg.Probe != nil {
		bq := &c.banks[idx]
		c.cfg.Probe.ObserveEnqueue(req.Coord, false,
			len(bq.reads.q), len(bq.writes.q), c.nReads, c.nWrites, c.now)
	}
	return true
}

// SyncClock advances the controller's notion of "now" — the arrival
// stamp given to enqueued requests — without running the scheduler.
// The event-driven engine calls it wherever the reference stepper would
// have ticked this controller (its per-bus-cycle Tick keeps the clock
// current even when nothing issues), so arrival stamps match.
func (c *Controller) SyncClock(bus dram.Cycle) {
	if bus > c.now {
		c.now = bus
	}
}

// NextEvent returns a lower bound on the next bus cycle at which a Tick
// could change observable state: deliver a completion, issue a command,
// or service a due refresh. Ticking the controller at (or before) every
// cycle NextEvent reports, instead of every cycle, is behaviourally
// identical to the reference stepper — intermediate ticks are no-ops.
// Enqueues invalidate the cached estimate: new work may be issuable on
// the very next bus cycle.
func (c *Controller) NextEvent() dram.Cycle {
	if c.dirty {
		return c.now + 1
	}
	if c.needScan {
		c.nextWake = c.nextEventScan(c.scanFrom)
		c.needScan = false
	}
	return c.nextWake
}

// NeedsTick reports whether a Tick at bus cycle bus could change state.
// The event-driven engine consults it on executed cycles to skip
// provably idle controller ticks; skipped ticks are exactly the ones
// NextEvent's contract already declares no-ops.
func (c *Controller) NeedsTick(bus dram.Cycle) bool {
	return c.dirty || c.NextEvent() <= bus
}

// Tick advances the controller by one cycle: delivers finished reads,
// then issues at most one command on the channel's command bus. It
// reports whether any state changed (a completion delivered, a command
// issued, or a refresh owning the channel) — informational for callers
// and tests; the event-driven engine schedules through NextEvent,
// which Tick refreshes as a side effect.
func (c *Controller) Tick(now dram.Cycle) bool {
	c.now = now
	arrived := c.dirty
	c.dirty = false
	c.cfg.Mechanism.Tick(now)
	progressed := c.deliverCompletions(now)
	// After delivery: its callbacks may enqueue writebacks here.
	c.updateDrainMode()

	issued := false
	if busy, refIssued := c.serviceRefresh(now); busy {
		// Refresh has the channel: either a command issued or the rank
		// is mid-preparation waiting on a timing expiry.
		progressed = true
		issued = refIssued
	} else if c.issueTimeEpoch != c.schedEpoch+1 || c.issueTimeCache <= now {
		// Skipped while the cached exact next-issue time is valid (no
		// issue or arrival since it was computed) and still ahead, as on
		// delivery-only ticks: nothing can issue this cycle.
		issued = c.runScheduler(now)
		progressed = progressed || issued
	}
	if issued {
		c.schedEpoch++
		c.updateDrainMode()
	}
	// Fresh arrivals (dirty) force the next cycle, and so does an issue
	// during a refresh-preparation stall: the next forced PRE (or the
	// REF) may already be legal, having lost only this cycle's command
	// slot, and the stall's event scan sees only register expiries.
	// Everything else comes from the event scan.
	wake := c.dirty
	if issued && !wake {
		for _, eng := range c.refresh {
			if eng.pending {
				wake = true
				break
			}
		}
	}
	switch {
	case wake:
		c.nextWake = now + 1
		c.needScan = false
	case progressed || arrived || c.needScan || c.nextWake <= now:
		// The estimate is stale: state changed (an issue, a delivery, a
		// refresh owning the channel), an arrival was consumed (the
		// queues changed since the estimate was computed, which may have
		// been while idle, without the timing-expiry bound), a scan was
		// already owed, or the cached bound has been reached. Recompute
		// lazily from this cycle.
		c.needScan = true
		c.scanFrom = now
	default:
		// Nothing happened and the cached estimate still lies in the
		// future. Registers, queues and completions are exactly as the
		// estimate saw them, so it remains a valid bound: keep it. This
		// makes the no-op ticks the event engine cannot avoid (cycles
		// executed for other components) O(1) for the controller.
	}
	return progressed
}

// nextEventScan computes NextEvent the slow way, after a tick in which
// something happened (or the previous estimate expired): the next
// completion, refresh deadline, the exact next-issue time read off the
// bank registers, or — during a refresh-preparation stall — the
// channel's earliest constraint expiry (the stall re-evaluates at every
// register flip of the refreshing rank).
func (c *Controller) nextEventScan(now dram.Cycle) dram.Cycle {
	next := dram.NoEvent
	add := func(t dram.Cycle) {
		if t > now && t < next {
			next = t
		}
	}
	if len(c.completions) > c.compHead {
		add(c.completions[c.compHead].at)
	}
	stalled := false
	for _, eng := range c.refresh {
		add(eng.nextDue)
		if eng.pending {
			stalled = true
		}
	}
	if stalled {
		// A due refresh owns the channel: normal scheduling is blocked
		// and the preparation (forced precharges, then REF) advances at
		// the next register expiry.
		add(c.ch.NextTimingExpiry(now))
		return next
	}
	if c.nReads > 0 || c.nWrites > 0 || c.closeIntents > 0 {
		// A command already legal at now lost this tick's single
		// command-bus slot (or arrived with it): it issues next cycle.
		t := c.nextIssueTime()
		if t <= now {
			t = now + 1
		}
		add(t)
	}
	return next
}

func (c *Controller) deliverCompletions(now dram.Cycle) bool {
	delivered := false
	if c.cfg.Profiler != nil && c.compHead < len(c.completions) && c.completions[c.compHead].at <= now {
		pt := c.cfg.Profiler.Begin(prof.Complete)
		defer c.cfg.Profiler.End(prof.Complete, pt, int64(now))
	}
	for c.compHead < len(c.completions) && c.completions[c.compHead].at <= now {
		delivered = true
		comp := c.completions[c.compHead]
		c.completions[c.compHead].req = nil
		c.compHead++
		lat := uint64(comp.at - comp.req.Arrive)
		c.stats.ReadLatencySum += lat
		bucket := lat / latencyBucketWidth
		if bucket >= latencyBuckets {
			bucket = latencyBuckets - 1
		}
		c.stats.ReadLatencyHist[bucket]++
		if comp.req.OnComplete != nil {
			comp.req.OnComplete(comp.at)
		}
	}
	if delivered && c.compHead == len(c.completions) {
		c.completions = c.completions[:0]
		c.compHead = 0
	}
	return delivered
}

// markCloseIntent flags (rank, bank) for a closed-row precharge.
func (c *Controller) markCloseIntent(idx int) {
	if !c.closeIntent[idx] {
		c.closeIntent[idx] = true
		c.closeIntents++
	}
}

// clearCloseIntent drops the flag on (rank, bank).
func (c *Controller) clearCloseIntent(idx int) {
	if c.closeIntent[idx] {
		c.closeIntent[idx] = false
		c.closeIntents--
	}
}

// serviceRefresh gives absolute priority to due refreshes: it closes open
// banks of the rank and issues REF when possible. busy reports that a
// due refresh owns the channel this cycle (blocking normal scheduling);
// issued distinguishes an actual REF/PRE issue from a pure stall
// waiting on a timing expiry.
func (c *Controller) serviceRefresh(now dram.Cycle) (busy, issued bool) {
	for rank, eng := range c.refresh {
		if !eng.due(now) {
			continue
		}
		if c.ch.CanIssue(dram.Refresh(rank), now) {
			c.ch.Issue(dram.Refresh(rank), now)
			eng.issued(now)
			c.stats.Refreshes++
			return true, true
		}
		// Close any open bank so REF can issue.
		for b := 0; b < c.cfg.Spec.Geometry.Banks; b++ {
			row, open := c.ch.OpenRow(rank, b)
			if !open {
				continue
			}
			pre := dram.Pre(rank, b)
			if c.ch.CanIssue(pre, now) {
				c.issuePrecharge(pre, row, now)
				return true, true
			}
		}
		// Refresh pending but nothing issuable yet (e.g. tRAS running):
		// stall this rank. With a single rank per channel this blocks
		// the channel, which matches real controllers' refresh priority.
		return true, false
	}
	return false, false
}

// updateDrainMode re-evaluates write-drain mode from the queue depths:
// drain at the high watermark, opportunistically whenever writes wait
// and no read does, and keep draining until the low watermark. It is
// idempotent — re-evaluating unchanged depths never flips the mode — so
// the mode depends only on the depths at the points they change (an
// arrival's forced tick, an issue), never on how many idle ticks ran.
func (c *Controller) updateDrainMode() {
	w := c.nWrites
	c.drain = w >= c.cfg.WriteHigh || (c.nReads == 0 && w > 0) ||
		(c.drain && w > c.cfg.WriteLow)
}

// activeSet returns the bank bitmask of the queue kind being serviced.
func (c *Controller) activeSet(isRead bool) *bankSet {
	if isRead {
		return &c.readBanks
	}
	return &c.writeBanks
}

// runScheduler performs one cycle of FR-FCFS scheduling: selection and
// at most one command issue. The first command issued on a request's
// behalf fixes its row-buffer outcome. It reports whether a command
// issued.
func (c *Controller) runScheduler(now dram.Cycle) bool {
	isRead := !c.drain
	pt := c.cfg.Profiler.Begin(prof.Select)
	sel := c.schedule(isRead, now)
	c.cfg.Profiler.End(prof.Select, pt, int64(now))
	switch {
	case sel.hit != nil:
		c.classify(sel.hit, RowHit)
		c.issueColumnAt(sel.hit, sel.hitIdx, sel.hitPos, isRead, now)
	case c.cfg.RowPolicy == ClosedRow && c.issueCloseIntent(now):
	case sel.old == nil:
		return false
	case sel.oldPre:
		c.classify(sel.old, RowConflict)
		c.issuePrecharge(dram.Pre(sel.old.Coord.Rank, sel.old.Coord.Bank), sel.oldRow, now)
	default:
		if !c.issueActivate(sel.old, now) {
			panic("memctrl: selected activate became illegal")
		}
		c.classify(sel.old, RowMiss)
	}
	return true
}

// sched is one cycle's FR-FCFS selection: the first-ready pick (the
// oldest open-row hit whose column is issuable) and the FCFS pick (the
// oldest request needing its bank's row changed whose command is
// issuable), computed side-effect-free in a single pass over the banks
// with queued work.
type sched struct {
	hit    *Request // first-ready pick, nil if none
	hitIdx int
	hitPos int
	old    *Request // FCFS pick, nil if none
	oldPre bool     // precharge (conflict) vs activate (miss)
	oldRow int      // open row the precharge closes
}

// schedule runs both selection passes over the active banks in one
// loop. Each bank contributes at most one candidate per pass — the
// oldest open-row hit, and the oldest row-changer (or the queue head of
// a closed bank) — and each pick is the minimum arrival sequence among
// banks whose command is legal this cycle. Identical decisions to the
// reference flat-queue walk: legality at a fixed cycle does not depend
// on walk order, so first-legal-in-age-order equals min-seq-among-legal.
// Rank-level gates (tCCD/turnaround/bus for columns, tRRD/tFAW/refresh
// for activates) are evaluated once per touched rank and prune whole
// banks.
func (c *Controller) schedule(isRead bool, now dram.Cycle) sched {
	set := c.activeSet(isRead)
	geomBanks := c.cfg.Spec.Geometry.Banks
	var colReady, colKnown, actReady, actKnown [maxRanks]bool
	var out sched
	hitSeq := noSeq
	// First-ready pass: the oldest request on an open row whose column
	// is issuable. The rank gate is checked before the bank's queue is
	// touched — it is closed on most cycles between bursts.
	for w, word := range set.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			idx := w*64 + bit
			rank := idx / geomBanks
			bank := idx % geomBanks
			if !colKnown[rank] {
				colKnown[rank] = true
				colReady[rank] = c.ch.RankColumnReady(rank, isRead, now)
			}
			if !colReady[rank] {
				continue
			}
			row, open := c.ch.OpenRow(rank, bank)
			if !open {
				continue
			}
			req, pos := c.banks[idx].kind(isRead).oldestRowHit(row)
			if req == nil || req.seq >= hitSeq {
				continue
			}
			if c.ch.BankColumnIssuable(rank, bank, isRead, now) {
				out.hit, hitSeq, out.hitIdx, out.hitPos = req, req.seq, idx, pos
			}
		}
	}
	if out.hit != nil {
		return out
	}
	// FCFS pass, only when no column hit issues: the oldest request
	// needing its bank's row changed.
	oldSeq := noSeq
	for w, word := range set.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			idx := w*64 + bit
			rank := idx / geomBanks
			bank := idx % geomBanks
			kq := c.banks[idx].kind(isRead)
			row, open := c.ch.OpenRow(rank, bank)
			if !open {
				// Miss: the head request wants an ACT. ACT legality is
				// row-independent, so only the head can be the pick.
				cand := kq.q[0]
				if cand.seq >= oldSeq {
					continue
				}
				if !actKnown[rank] {
					actKnown[rank] = true
					actReady[rank] = c.ch.RankActReady(rank, now)
				}
				if actReady[rank] && c.ch.BankActIssuable(rank, bank, now) {
					out.old, oldSeq, out.oldPre = cand, cand.seq, false
				}
				continue
			}
			// Conflict: close the row on behalf of the oldest request
			// wanting a different one.
			if cand := kq.oldestRowChanger(row); cand != nil && cand.seq < oldSeq {
				if c.ch.PreIssuable(rank, bank, now) && c.preUseful(rank, bank, now) {
					out.old, oldSeq, out.oldPre, out.oldRow = cand, cand.seq, true, row
				}
			}
		}
	}
	return out
}

// issueCloseIntent precharges a bank the closed-row policy marked,
// unless a queued request now wants the open row again (the mark stays:
// serving that request re-marks it anyway).
func (c *Controller) issueCloseIntent(now dram.Cycle) bool {
	if c.closeIntents == 0 {
		return false
	}
	for idx, want := range c.closeIntent {
		if !want {
			continue
		}
		rank := idx / c.cfg.Spec.Geometry.Banks
		bankID := idx % c.cfg.Spec.Geometry.Banks
		row, open := c.ch.OpenRow(rank, bankID)
		if !open || c.anyPendingFor(rank, bankID, row) {
			continue
		}
		pre := dram.Pre(rank, bankID)
		if c.ch.CanIssue(pre, now) && c.preUseful(rank, bankID, now) {
			c.issuePrecharge(pre, row, now)
			return true
		}
	}
	return false
}

// nextIssueTime returns the exact earliest cycle at which the
// scheduler could issue a command, read off the per-bank next-allowed
// registers: for every bank with queued work of the active kind, the
// ready time of its first-ready candidate (oldest open-row hit) and its
// FCFS candidate (conflict precharge or miss activate), plus any
// closed-row precharge intents. Exact because nothing the
// computation depends on — queues, bank states, registers, drain mode —
// can change before that cycle without an executed event (arrivals mark
// the controller dirty, which overrides the estimate).
func (c *Controller) nextIssueTime() dram.Cycle {
	if c.issueTimeEpoch == c.schedEpoch+1 {
		return c.issueTimeCache
	}
	v := c.computeNextIssueTime()
	c.issueTimeEpoch = c.schedEpoch + 1
	c.issueTimeCache = v
	return v
}

func (c *Controller) computeNextIssueTime() dram.Cycle {
	isRead := !c.drain
	set := c.activeSet(isRead)
	geomBanks := c.cfg.Spec.Geometry.Banks
	rp := dram.Cycle(c.cfg.Spec.Timing.RP)
	at := dram.NoEvent
	for w, word := range set.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			idx := w*64 + bit
			rank := idx / geomBanks
			bank := idx % geomBanks
			kq := c.banks[idx].kind(isRead)
			row, open := c.ch.OpenRow(rank, bank)
			if !open {
				if t := c.ch.ActIssueAt(rank, bank); t < at {
					at = t
				}
				continue
			}
			if hit, _ := kq.oldestRowHit(row); hit != nil {
				if t := c.ch.ColumnIssueAt(rank, bank, isRead); t < at {
					at = t
				}
			}
			if kq.oldestRowChanger(row) != nil {
				// Conflict precharge: legality plus the preUseful bound
				// (a PRE earlier than tRP before the bank's ACT window
				// cannot help).
				t := c.ch.PreIssueAt(rank, bank)
				if u := c.ch.EarliestActivate(rank, bank) - rp; u > t {
					t = u
				}
				if t < at {
					at = t
				}
			}
		}
	}
	if c.cfg.RowPolicy == ClosedRow && c.closeIntents > 0 {
		for idx, want := range c.closeIntent {
			if !want {
				continue
			}
			rank := idx / geomBanks
			bank := idx % geomBanks
			row, open := c.ch.OpenRow(rank, bank)
			if !open || c.anyPendingFor(rank, bank, row) {
				continue // held while a request wants the row
			}
			t := c.ch.PreIssueAt(rank, bank)
			if u := c.ch.EarliestActivate(rank, bank) - rp; u > t {
				t = u
			}
			if t < at {
				at = t
			}
		}
	}
	return at
}

// preUseful reports whether precharging (rank, bank) now can shorten the
// next activation. Precharging earlier than tRP before the bank's
// same-bank ACT bound only sacrifices potential row hits: the reopen
// cannot start sooner anyway.
func (c *Controller) preUseful(rank, bankID int, now dram.Cycle) bool {
	return now+dram.Cycle(c.cfg.Spec.Timing.RP) >= c.ch.EarliestActivate(rank, bankID)
}

// classify counts a request's row-buffer outcome once, at the first
// command issued on its behalf; later commands for it (the ACT after a
// conflict PRE, the column after an ACT) do not recount.
func (c *Controller) classify(req *Request, outcome RowOutcome) {
	if req.classified {
		return
	}
	req.classified = true
	switch outcome {
	case RowHit:
		c.stats.RowHits++
	case RowMiss:
		c.stats.RowMisses++
	default:
		c.stats.RowConflicts++
	}
	if c.cfg.Probe != nil {
		c.cfg.Probe.ObserveRowOutcome(req.Coord, outcome, req.Arrive)
	}
}

func (c *Controller) issueActivate(req *Request, now dram.Cycle) bool {
	key := core.MakeRowKey(req.Coord.Rank, req.Coord.Bank, req.Coord.Row)
	age := c.refresh[req.Coord.Rank].ageOf(req.Coord.Row, now)
	// Probe legality with the spec class first: the mechanism must only
	// observe activations that actually issue.
	probe := dram.Act(req.Coord.Rank, req.Coord.Bank, req.Coord.Row, c.cfg.Spec.Timing.DefaultClass())
	if !c.ch.CanIssue(probe, now) {
		return false
	}
	class := c.cfg.Mechanism.OnActivate(key, now, age)
	fast := class.RCD < c.cfg.Spec.Timing.RCD || class.RAS < c.cfg.Spec.Timing.RAS
	c.ch.Issue(dram.Act(req.Coord.Rank, req.Coord.Bank, req.Coord.Row, class), now)
	c.stats.Activations++
	if fast {
		c.stats.FastActivations++
	}
	if c.cfg.Observer != nil {
		c.cfg.Observer.ObserveActivate(c.cfg.Channel, key, now, age, fast)
	}
	return true
}

func (c *Controller) issuePrecharge(pre dram.Command, row int, now dram.Cycle) {
	c.ch.Issue(pre, now)
	c.clearCloseIntent(pre.Rank*c.cfg.Spec.Geometry.Banks + pre.Bank)
	key := core.MakeRowKey(pre.Rank, pre.Bank, row)
	c.cfg.Mechanism.OnPrecharge(key, now)
	if c.cfg.Observer != nil {
		c.cfg.Observer.ObservePrecharge(c.cfg.Channel, key, now)
	}
}

// issueColumnAt issues the RD/WR serving req (legality already checked
// by the selection pass) and dequeues it.
func (c *Controller) issueColumnAt(req *Request, idx, pos int, isRead bool, now dram.Cycle) {
	if req.Kind == ReadReq {
		c.ch.Issue(dram.Read(req.Coord.Rank, req.Coord.Bank, req.Coord.Col), now)
		c.completions = append(c.completions, completion{at: c.ch.ReadDataAt(now), req: req})
		c.stats.ReadsServed++
	} else {
		c.ch.Issue(dram.Write(req.Coord.Rank, req.Coord.Bank, req.Coord.Col), now)
		c.stats.WritesServed++
		if req.OnComplete != nil {
			req.OnComplete(now)
		}
	}
	c.banks[idx].kind(isRead).remove(pos)
	if isRead {
		c.nReads--
		if len(c.banks[idx].reads.q) == 0 {
			c.readBanks.clear(idx)
		}
	} else {
		c.nWrites--
		if len(c.banks[idx].writes.q) == 0 {
			c.writeBanks.clear(idx)
		}
	}
	if c.cfg.RowPolicy == ClosedRow &&
		!c.anyPendingFor(req.Coord.Rank, req.Coord.Bank, req.Coord.Row) {
		c.markCloseIntent(idx)
	}
}

// anyPendingFor reports whether any queued request targets (rank, bank,
// row) — consulted by the closed-row policy. Only the one bank's queues
// need scanning.
func (c *Controller) anyPendingFor(rank, bankID, row int) bool {
	bq := &c.banks[rank*c.cfg.Spec.Geometry.Banks+bankID]
	return bq.reads.anyFor(row) || bq.writes.anyFor(row)
}

// RefreshAge exposes the refresh engine's age for a row (tests, tools).
func (c *Controller) RefreshAge(rank, row int, now dram.Cycle) dram.Cycle {
	return c.refresh[rank].ageOf(row, now)
}
