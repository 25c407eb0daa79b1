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
// recover the global FCFS order. One walk (schedule) visits only the
// banks with queued work (a bitmask per kind) and the banks marked for a
// closed-row precharge, judges each bank's candidates by the cycle their
// command becomes legal, and yields both this cycle's pick and the
// earliest cycle any candidate becomes legal — identical decisions to a
// flat-queue walk, without touching requests that cannot make progress.
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
	// once no queued request wants their open row: set when a column
	// command serves the last queued request for the row, cleared by
	// whichever PRE closes the bank.
	closeIntent bankSet

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

	// schedEpoch increments whenever the inputs of the scheduler's walk
	// can have changed: a command issued (registers, bank states, close
	// intents, drain mode) or a request arrived (queues). Completion
	// deliveries leave them untouched. Within one epoch the walk's
	// minimum ready-at is fixed, so the event engine needs one walk per
	// epoch: a failed selection records its minimum in missEpoch/missAt,
	// and nextIssueTime publishes it (walking only when no failed
	// selection ran this epoch) into issueTimeEpoch/issueTimeCache, the
	// pair Tick's skip guard reads. Only NextEvent's scan publishes, so
	// the reference stepper, which never asks, selects on every tick and
	// stays independent of the horizon it checks.
	schedEpoch     uint64
	missEpoch      uint64
	missAt         dram.Cycle
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
		closeIntent: newBankSet(nb),
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
		// Skipped while the published exact next-issue time is valid (no
		// issue or arrival since it was computed) and still ahead, as on
		// delivery-only ticks: nothing can issue this cycle. Only
		// NextEvent publishes it, so a stepper-only run never skips.
		issued = c.runScheduler(now)
		progressed = progressed || issued
	}
	if issued {
		c.schedEpoch++
		c.updateDrainMode()
	}
	// Fresh arrivals (dirty) force the next cycle; everything else comes
	// from the event scan.
	switch {
	case c.dirty:
		c.nextWake = now + 1
		c.needScan = false
	case progressed || arrived || c.needScan || c.nextWake <= now:
		// The estimate is stale: state changed (an issue, a delivery, a
		// refresh owning the channel), an arrival was consumed (the
		// queues changed since the estimate was computed), a scan was
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
// completion, refresh deadline, and either the exact next-issue time
// read off the bank registers or — during a refresh-preparation stall —
// the ready-at of the preparation's next step.
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
	stalled := -1
	for rank, eng := range c.refresh {
		add(eng.nextDue)
		if eng.pending && stalled < 0 {
			stalled = rank
		}
	}
	// A step already legal at now lost this tick's single command-bus
	// slot (or arrived with it): it issues next cycle.
	if stalled >= 0 {
		// A due refresh owns the channel: normal scheduling is blocked
		// and serviceRefresh serves the first pending rank, whose next
		// step (a forced precharge, then REF) issues at its ready-at.
		_, _, at := c.refreshStep(stalled, now)
		add(max(at, now+1))
		return next
	}
	add(max(c.nextIssueTime(now), now+1))
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

// serviceRefresh gives absolute priority to due refreshes: it issues the
// first due rank's next refresh step (a forced precharge, then REF) once
// that step is legal. busy reports that a due refresh owns the channel
// this cycle (blocking normal scheduling); issued distinguishes an actual
// REF/PRE issue from a pure stall waiting on a timing expiry.
func (c *Controller) serviceRefresh(now dram.Cycle) (busy, issued bool) {
	for rank, eng := range c.refresh {
		if !eng.due(now) {
			continue
		}
		cmd, row, at := c.refreshStep(rank, now)
		if at > now {
			// Nothing issuable yet (e.g. tRAS running): stall this rank.
			// With a single rank per channel this blocks the channel,
			// which matches real controllers' refresh priority.
			return true, false
		}
		if cmd.Kind == dram.CmdREF {
			c.ch.Issue(cmd, now)
			eng.issued(now)
			c.stats.Refreshes++
		} else {
			c.issuePrecharge(cmd, row, now)
		}
		return true, true
	}
	return false, false
}

// refreshStep returns the refresh preparation's next command for rank,
// the open row it closes (for a PRE), and the cycle it becomes legal:
// REF once every bank of the rank is closed; otherwise a PRE of the
// lowest-index open bank whose PRE is legal at now, or, when none is
// yet, of the open bank whose PRE becomes legal first.
func (c *Controller) refreshStep(rank int, now dram.Cycle) (cmd dram.Command, row int, at dram.Cycle) {
	at = dram.NoEvent
	for b := 0; b < c.cfg.Spec.Geometry.Banks; b++ {
		open, isOpen := c.ch.OpenRow(rank, b)
		if !isOpen {
			continue
		}
		t := c.ch.PreIssueAt(rank, b)
		if t <= now {
			return dram.Pre(rank, b), open, t
		}
		if t < at {
			cmd, row, at = dram.Pre(rank, b), open, t
		}
	}
	if at == dram.NoEvent { // every bank closed
		return dram.Refresh(rank), 0, c.ch.RefIssueAt(rank)
	}
	return cmd, row, at
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
// issued; when none did, the walk's minimum ready-at is kept for
// nextIssueTime.
func (c *Controller) runScheduler(now dram.Cycle) bool {
	isRead := !c.drain
	pt := c.cfg.Profiler.Begin(prof.Select)
	sel := c.schedule(isRead, now)
	c.cfg.Profiler.End(prof.Select, pt, int64(now))
	switch {
	case sel.hit != nil:
		c.classify(sel.hit, RowHit)
		c.issueColumnAt(sel.hit, sel.hitIdx, sel.hitPos, isRead, now)
	case sel.closeIdx >= 0:
		banks := c.cfg.Spec.Geometry.Banks
		c.issuePrecharge(dram.Pre(sel.closeIdx/banks, sel.closeIdx%banks), sel.closeRow, now)
	case sel.old == nil:
		c.missEpoch, c.missAt = c.schedEpoch+1, sel.readyAt
		return false
	case sel.oldPre:
		c.classify(sel.old, RowConflict)
		c.issuePrecharge(dram.Pre(sel.old.Coord.Rank, sel.old.Coord.Bank), sel.oldRow, now)
	default:
		c.issueActivate(sel.old, now)
		c.classify(sel.old, RowMiss)
	}
	return true
}

// sched is one walk's FR-FCFS verdict: the first-ready pick (the oldest
// open-row hit whose column is legal), the closed-row precharge pick,
// the FCFS pick (the oldest request needing its bank's row changed whose
// command is legal), and the minimum ready-at over the candidates the
// walk judged.
type sched struct {
	hit      *Request // first-ready pick, nil if none
	hitIdx   int
	hitPos   int
	closeIdx int      // bank whose close intent is picked, -1 if none
	closeRow int      // open row that precharge closes
	old      *Request // FCFS pick, nil if none
	oldPre   bool     // precharge (conflict) vs activate (miss)
	oldRow   int      // open row the precharge closes

	// readyAt is the earliest cycle any judged candidate's command is
	// legal. With no pick every candidate was judged, so it is the exact
	// next-issue time; with a pick it is at most now.
	readyAt dram.Cycle
}

// ready folds a candidate's ready-at into the walk's minimum and reports
// whether the candidate is legal at now.
func (s *sched) ready(at, now dram.Cycle) bool {
	if at < s.readyAt {
		s.readyAt = at
	}
	return at <= now
}

// schedule is the scheduler's one walk. It judges every candidate by the
// cycle its command becomes legal, read off the bank and rank registers:
// each bank with queued work of the active kind offers its oldest
// open-row hit (ColumnIssueAt) and its oldest row-changer (preReadyAt),
// or, when precharged, its queue head (ActIssueAt; ACT legality is
// row-independent, so only the head can be the pick); each closed-row
// intent offers a precharge (preReadyAt). A candidate is legal iff its
// ready-at is at most now, and each pick is the minimum arrival sequence
// among legal candidates — the flat-queue walk's decision, since legality
// at a fixed cycle does not depend on walk order. Priority is hit, then
// close intent (lowest bank first), then FCFS; candidates that can no
// longer win are not judged.
//
//ccsim:zeroalloc
func (c *Controller) schedule(isRead bool, now dram.Cycle) sched {
	set := c.activeSet(isRead)
	geomBanks := c.cfg.Spec.Geometry.Banks
	out := sched{closeIdx: -1, readyAt: dram.NoEvent}
	hitSeq, oldSeq := noSeq, noSeq
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
				if cand := kq.q[0]; out.hit == nil && cand.seq < oldSeq &&
					out.ready(c.ch.ActIssueAt(rank, bank), now) {
					out.old, oldSeq, out.oldPre = cand, cand.seq, false
				}
				continue
			}
			if req, pos := kq.oldestRowHit(row); req != nil && req.seq < hitSeq &&
				out.ready(c.ch.ColumnIssueAt(rank, bank, isRead), now) {
				out.hit, hitSeq, out.hitIdx, out.hitPos = req, req.seq, idx, pos
			}
			if out.hit != nil {
				continue
			}
			if cand := kq.oldestRowChanger(row); cand != nil && cand.seq < oldSeq &&
				out.ready(c.preReadyAt(rank, bank), now) {
				out.old, oldSeq, out.oldPre, out.oldRow = cand, cand.seq, true, row
			}
		}
	}
	if out.hit != nil {
		return out
	}
	for w, word := range c.closeIntent.words {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			idx := w*64 + bit
			rank := idx / geomBanks
			bank := idx % geomBanks
			row, open := c.ch.OpenRow(rank, bank)
			if !open || c.anyPendingFor(rank, bank, row) {
				continue // held while a request wants the row
			}
			if out.ready(c.preReadyAt(rank, bank), now) {
				out.closeIdx, out.closeRow = idx, row
				return out
			}
		}
	}
	return out
}

// nextIssueTime returns the earliest cycle at which the scheduler could
// issue a command: the walk's minimum ready-at, exact when it lies after
// now (with no legal candidate the walk judged every one) and at most
// now otherwise. Exact because nothing the walk depends on — queues,
// bank states, registers, close intents, drain mode — can change before
// that cycle without an executed event (arrivals mark the controller
// dirty, which overrides the estimate). A failed selection in the same
// epoch already walked, so its minimum is reused.
func (c *Controller) nextIssueTime(now dram.Cycle) dram.Cycle {
	if c.issueTimeEpoch != c.schedEpoch+1 {
		at := c.missAt
		if c.missEpoch != c.schedEpoch+1 {
			at = c.schedule(!c.drain, now).readyAt
		}
		c.issueTimeEpoch, c.issueTimeCache = c.schedEpoch+1, at
	}
	return c.issueTimeCache
}

// preReadyAt is the cycle from which precharging (rank, bank) is both
// legal and useful. Precharging earlier than tRP before the bank's
// same-bank ACT bound only sacrifices potential row hits: the reopen
// cannot start sooner anyway.
func (c *Controller) preReadyAt(rank, bankID int) dram.Cycle {
	return max(c.ch.PreIssueAt(rank, bankID), c.ch.EarliestActivate(rank, bankID)-dram.Cycle(c.cfg.Spec.Timing.RP))
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

// issueActivate issues the ACT serving req. The selection walk already
// judged it legal (ActIssueAt ≤ now, independent of the timing class), so
// the mechanism observes only activations that actually issue.
func (c *Controller) issueActivate(req *Request, now dram.Cycle) {
	key := core.MakeRowKey(req.Coord.Rank, req.Coord.Bank, req.Coord.Row)
	age := c.refresh[req.Coord.Rank].ageOf(req.Coord.Row, now)
	class := c.cfg.Mechanism.OnActivate(key, now, age)
	fast := class.Lowers(c.cfg.Spec.Timing.DefaultClass())
	c.ch.Issue(dram.Act(req.Coord.Rank, req.Coord.Bank, req.Coord.Row, class), now)
	c.stats.Activations++
	if fast {
		c.stats.FastActivations++
	}
	if c.cfg.Observer != nil {
		c.cfg.Observer.ObserveActivate(c.cfg.Channel, key, now, age, fast)
	}
}

func (c *Controller) issuePrecharge(pre dram.Command, row int, now dram.Cycle) {
	c.ch.Issue(pre, now)
	c.closeIntent.clear(pre.Rank*c.cfg.Spec.Geometry.Banks + pre.Bank)
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
		c.closeIntent.set(idx)
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
