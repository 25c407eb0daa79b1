package memctrl

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
)

func ctrlConfig(policy RowPolicy) Config {
	spec := dram.DDR31600(1)
	return Config{
		Spec:          spec,
		Channel:       0,
		ReadQueueCap:  64,
		WriteQueueCap: 64,
		RowPolicy:     policy,
		WriteHigh:     48,
		WriteLow:      16,
		Mechanism:     core.NewBaseline(spec.Timing.DefaultClass()),
	}
}

func mustCtrl(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

// run ticks the controller through [from, to).
func run(c *Controller, from, to dram.Cycle) {
	for now := from; now < to; now++ {
		c.Tick(now)
	}
}

func readReq(coord Coord, done *dram.Cycle) *Request {
	return &Request{
		Kind:  ReadReq,
		Coord: coord,
		OnComplete: func(now dram.Cycle) {
			*done = now
		},
	}
}

func TestConfigValidate(t *testing.T) {
	bad := ctrlConfig(OpenRow)
	bad.Mechanism = nil
	if _, err := NewController(bad); err == nil {
		t.Error("accepted nil mechanism")
	}
	bad = ctrlConfig(OpenRow)
	bad.Channel = 7
	if _, err := NewController(bad); err == nil {
		t.Error("accepted out-of-range channel")
	}
	bad = ctrlConfig(OpenRow)
	bad.WriteHigh = 10
	bad.WriteLow = 20
	if _, err := NewController(bad); err == nil {
		t.Error("accepted inverted watermarks")
	}
	bad = ctrlConfig(OpenRow)
	bad.ReadQueueCap = 0
	if _, err := NewController(bad); err == nil {
		t.Error("accepted zero queue capacity")
	}
}

func TestSingleReadLatency(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	tm := c.cfg.Spec.Timing
	var done dram.Cycle = -1
	c.Tick(0) // establish now
	if !c.EnqueueRead(readReq(Coord{Row: 5, Col: 3}, &done)) {
		t.Fatal("enqueue failed")
	}
	run(c, 1, 200)
	// ACT at cycle 1, RD at 1+tRCD, data at +tCL+tBL.
	want := dram.Cycle(1 + tm.RCD + tm.CL + tm.BL)
	if done != want {
		t.Errorf("read completed at %d, want %d", done, want)
	}
	s := c.Stats()
	if s.ReadsServed != 1 || s.Activations != 1 || s.RowMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	var d1, d2 dram.Cycle = -1, -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d1))
	run(c, 1, 100)
	first := d1
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 1}, &d2))
	start := dram.Cycle(100)
	run(c, start, 200)
	// Open-row policy kept row 5 open: second access is a row hit and
	// needs only RD + data.
	tm := c.cfg.Spec.Timing
	hitLatency := d2 - start
	if hitLatency > dram.Cycle(tm.CL+tm.BL+1) {
		t.Errorf("row-hit latency = %d, want <= %d", hitLatency, tm.CL+tm.BL+1)
	}
	if first <= 0 {
		t.Fatal("first read never completed")
	}
	s := c.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 || s.RowConflicts != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Activations != 1 {
		t.Errorf("activations = %d, want 1 (second access was a hit)", s.Activations)
	}

	// Two reads to one row queued together on a precharged bank whose
	// ACT must wait (tRRD behind another bank's ACT): the outcome is
	// fixed by the first command issued for each request, so the first
	// (ACT) is a miss and the second (RD on the row that ACT opened) a
	// hit. Classifying when the scheduler first looks at a request
	// would count both as misses, since both see the bank closed.
	c = mustCtrl(t, ctrlConfig(OpenRow))
	var d0 dram.Cycle = -1
	d1, d2 = -1, -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Bank: 0, Row: 3, Col: 0}, &d0))
	c.EnqueueRead(readReq(Coord{Bank: 1, Row: 7, Col: 0}, &d1))
	c.EnqueueRead(readReq(Coord{Bank: 1, Row: 7, Col: 1}, &d2))
	run(c, 1, 200)
	if d0 < 0 || d1 < 0 || d2 < 0 {
		t.Fatal("queued reads never completed")
	}
	s = c.Stats()
	if s.RowHits != 1 || s.RowMisses != 2 || s.RowConflicts != 0 || s.Activations != 2 {
		t.Errorf("same-row pair on a closed bank: stats = %+v, want 1 hit + 2 misses, 2 ACTs", s)
	}
}

func TestRowConflictPrechargesAndReactivates(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	var d1, d2 dram.Cycle = -1, -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d1))
	run(c, 1, 100)
	c.EnqueueRead(readReq(Coord{Row: 9, Col: 0}, &d2))
	run(c, 100, 300)
	if d2 < 0 {
		t.Fatal("conflicting read never completed")
	}
	s := c.Stats()
	if s.RowHits != 0 || s.RowMisses != 1 || s.RowConflicts != 1 {
		t.Errorf("outcomes = %d hits / %d misses / %d conflicts, want 0/1/1 "+
			"(the PRE fixes the second read as a conflict; its ACT does not recount)",
			s.RowHits, s.RowMisses, s.RowConflicts)
	}
	if s.Activations != 2 {
		t.Errorf("activations = %d, want 2", s.Activations)
	}
}

func TestClosedRowPolicyPrecharges(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(ClosedRow))
	var d1 dram.Cycle = -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d1))
	run(c, 1, 200)
	if d1 < 0 {
		t.Fatal("read never completed")
	}
	// With no pending requests the bank must have been precharged.
	if _, open := c.Channel().OpenRow(0, 0); open {
		t.Error("closed-row policy left the bank open")
	}
}

func TestOpenRowPolicyKeepsRowOpen(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	var d1 dram.Cycle = -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d1))
	run(c, 1, 200)
	if row, open := c.Channel().OpenRow(0, 0); !open || row != 5 {
		t.Errorf("open-row policy: row = (%d,%v), want (5,true)", row, open)
	}
}

func TestWriteCompletesOnIssue(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	var done dram.Cycle = -1
	c.Tick(0)
	ok := c.EnqueueWrite(&Request{
		Kind:  WriteReq,
		Coord: Coord{Row: 2, Col: 0},
		OnComplete: func(now dram.Cycle) {
			done = now
		},
	})
	if !ok {
		t.Fatal("enqueue failed")
	}
	run(c, 1, 200)
	if done < 0 {
		t.Fatal("write never issued")
	}
	if got := c.Stats().WritesServed; got != 1 {
		t.Errorf("WritesServed = %d", got)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	cfg := ctrlConfig(OpenRow)
	cfg.WriteHigh = 4
	cfg.WriteLow = 1
	c := mustCtrl(t, cfg)
	c.Tick(0)
	// Keep a read stream flowing while writes accumulate below the
	// watermark: reads must be served first.
	var reads int
	for i := 0; i < 3; i++ {
		c.EnqueueWrite(&Request{Kind: WriteReq, Coord: Coord{Row: 100 + i, Col: 0}})
	}
	var rdone dram.Cycle = -1
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &rdone))
	run(c, 1, 120)
	if rdone < 0 {
		t.Fatal("read starved by sub-watermark writes")
	}
	reads = int(c.Stats().ReadsServed)
	if reads != 1 {
		t.Errorf("reads served = %d", reads)
	}
	// Now cross the high watermark: writes must drain.
	for i := 0; i < 4; i++ {
		c.EnqueueWrite(&Request{Kind: WriteReq, Coord: Coord{Row: 200 + i, Col: 0}})
	}
	run(c, 120, 2000)
	if got := c.Stats().WritesServed; got != 7 {
		t.Errorf("writes served = %d, want 7", got)
	}

	// Draining with no reads queued and writes at or below the low
	// watermark: the mode must hold across consecutive ticks, so that
	// it does not depend on which idle ticks an event-driven caller
	// skips.
	c = mustCtrl(t, cfg)
	c.Tick(0)
	for i := 0; i < cfg.WriteHigh; i++ {
		c.EnqueueWrite(&Request{Kind: WriteReq, Coord: Coord{Row: 300 + i, Col: 0}})
	}
	now := dram.Cycle(1)
	for ; c.QueuedWrites() > cfg.WriteLow && now < 2000; now++ {
		c.Tick(now)
	}
	if c.QueuedWrites() != cfg.WriteLow || c.QueuedReads() != 0 {
		t.Fatalf("queues = %d reads / %d writes, want 0 / %d",
			c.QueuedReads(), c.QueuedWrites(), cfg.WriteLow)
	}
	for end := now + 3; now < end; now++ {
		if !c.drain {
			t.Fatalf("drain mode dropped at cycle %d with %d writes and no reads queued",
				now, c.QueuedWrites())
		}
		c.Tick(now)
	}
}

func TestQueueCapacityEnforced(t *testing.T) {
	cfg := ctrlConfig(OpenRow)
	cfg.ReadQueueCap = 2
	cfg.WriteQueueCap = 2
	cfg.WriteHigh = 2
	cfg.WriteLow = 0
	c := mustCtrl(t, cfg)
	c.Tick(0)
	if !c.EnqueueRead(&Request{Coord: Coord{Row: 1}}) ||
		!c.EnqueueRead(&Request{Coord: Coord{Row: 2}}) {
		t.Fatal("first two enqueues failed")
	}
	if c.EnqueueRead(&Request{Coord: Coord{Row: 3}}) {
		t.Error("read queue overfilled")
	}
	if !c.EnqueueWrite(&Request{Kind: WriteReq, Coord: Coord{Row: 1}}) ||
		!c.EnqueueWrite(&Request{Kind: WriteReq, Coord: Coord{Row: 2}}) {
		t.Fatal("write enqueues failed")
	}
	if c.EnqueueWrite(&Request{Kind: WriteReq, Coord: Coord{Row: 3}}) {
		t.Error("write queue overfilled")
	}
	if c.QueuedReads() != 2 || c.QueuedWrites() != 2 {
		t.Errorf("depths = %d/%d", c.QueuedReads(), c.QueuedWrites())
	}
	if !c.Pending() {
		t.Error("Pending() = false with queued requests")
	}
}

func TestRefreshIssuedEveryREFI(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	tm := c.cfg.Spec.Timing
	run(c, 0, dram.Cycle(tm.REFI)*4+dram.Cycle(tm.RFC))
	got := c.Stats().Refreshes
	if got < 3 || got > 5 {
		t.Errorf("refreshes in 4x tREFI = %d, want ~4", got)
	}
}

func TestRefreshClosesOpenBank(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	tm := c.cfg.Spec.Timing
	var d dram.Cycle = -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d))
	// Run past the first refresh due time: the open row must be closed,
	// REF issued, and the bank left precharged.
	run(c, 1, dram.Cycle(tm.REFI)+dram.Cycle(tm.RFC)+100)
	if c.Stats().Refreshes == 0 {
		t.Fatal("no refresh issued")
	}
	if _, open := c.Channel().OpenRow(0, 0); open {
		t.Error("bank open right after refresh window")
	}
}

// TestRefreshPrechargesLowestBankFirst pins the refresh preparation's
// order: with two banks open and both PREs legal when the refresh comes
// due, it closes the lowest-index bank first, even though the other
// bank's PRE became legal earlier.
func TestRefreshPrechargesLowestBankFirst(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	var pres []dram.Command
	c.Channel().SetTracer(func(cmd dram.Command, _ dram.Cycle) {
		if cmd.Kind == dram.CmdPRE {
			pres = append(pres, cmd)
		}
	})
	var d0, d1 dram.Cycle = -1, -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Bank: 1, Row: 5}, &d1))
	run(c, 1, 100)
	c.EnqueueRead(readReq(Coord{Bank: 0, Row: 5}, &d0))
	due := c.refresh[0].nextDue
	run(c, 100, due)
	ch := c.Channel()
	if d0 < 0 || d1 < 0 || len(pres) != 0 {
		t.Fatalf("setup: reads done at %d/%d, %d PREs before the refresh", d0, d1, len(pres))
	}
	if at0, at1 := ch.PreIssueAt(0, 0), ch.PreIssueAt(0, 1); at1 >= at0 || at0 > due {
		t.Fatalf("setup: PRE ready at bank 0 %d, bank 1 %d; want bank 1 first, both by %d", at0, at1, due)
	}
	run(c, due, due+dram.Cycle(c.cfg.Spec.Timing.RFC))
	if c.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", c.Stats().Refreshes)
	}
	if want := []dram.Command{dram.Pre(0, 0), dram.Pre(0, 1)}; len(pres) != 2 || pres[0] != want[0] || pres[1] != want[1] {
		t.Errorf("refresh precharges = %v, want %v", pres, want)
	}
}

func TestRefreshAgeDecreasesAfterRefresh(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	tm := c.cfg.Spec.Timing
	// The first refresh covers the slot the walk starts at; bit-reversal
	// is an involution, so slotOf doubles as the inverse mapping.
	eng := c.refresh[0]
	row := eng.slotOf(int(eng.counter % uint64(eng.slots)))
	before := c.RefreshAge(0, row, 0)
	if before <= 0 {
		t.Errorf("initial age = %d, want positive", before)
	}
	end := dram.Cycle(tm.REFI) + dram.Cycle(tm.RFC) + 10
	run(c, 0, end)
	after := c.RefreshAge(0, row, end)
	if after >= before {
		t.Errorf("age did not decrease after refresh: before=%d after=%d", before, after)
	}
	if after > end {
		t.Errorf("age = %d larger than elapsed time", after)
	}
}

func TestRefreshAgesSpreadAtStart(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	window := c.cfg.Spec.Timing.RetentionWindow
	// Initial ages must span roughly (0, retention window]: uncorrelated
	// with row order and none wildly out of range.
	var minAge, maxAge dram.Cycle = 1 << 62, 0
	for row := 0; row < c.cfg.Spec.Geometry.Rows; row += 997 {
		age := c.RefreshAge(0, row, 0)
		if age <= 0 || age > window+dram.Cycle(c.cfg.Spec.Timing.REFI) {
			t.Fatalf("row %d initial age %d out of range", row, age)
		}
		if age < minAge {
			minAge = age
		}
		if age > maxAge {
			maxAge = age
		}
	}
	if maxAge-minAge < window/2 {
		t.Errorf("ages not spread: min=%d max=%d window=%d", minAge, maxAge, window)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	var dHit, dMiss dram.Cycle = -1, -1
	c.Tick(0)
	// Open row 5.
	var d0 dram.Cycle = -1
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d0))
	run(c, 1, 100)
	// Oldest: a conflicting request to row 9; younger: a hit to row 5.
	c.EnqueueRead(readReq(Coord{Row: 9, Col: 0}, &dMiss))
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 1}, &dHit))
	run(c, 100, 400)
	if dHit < 0 || dMiss < 0 {
		t.Fatal("requests did not complete")
	}
	if dHit >= dMiss {
		t.Errorf("row hit (%d) should complete before older conflict (%d)", dHit, dMiss)
	}
}

func TestMechanismDrivesFastActivations(t *testing.T) {
	spec := dram.DDR31600(1)
	cfg := ctrlConfig(OpenRow)
	cc, err := core.NewChargeCache(core.ChargeCacheConfig{
		Entries:  128,
		Assoc:    2,
		Duration: spec.MillisecondsToCycles(1),
		Fast:     dram.TimingClass{RCD: 7, RAS: 20},
		Default:  spec.Timing.DefaultClass(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = cc
	c := mustCtrl(t, cfg)
	var d1, d2, d3 dram.Cycle = -1, -1, -1
	c.Tick(0)
	// First activation of row 5: miss. Then a conflict to row 9 closes
	// row 5 (inserting it into the HCRAC). Reactivating row 5 hits.
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d1))
	run(c, 1, 100)
	c.EnqueueRead(readReq(Coord{Row: 9, Col: 0}, &d2))
	run(c, 100, 300)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 1}, &d3))
	run(c, 300, 600)
	if d3 < 0 {
		t.Fatal("third read never completed")
	}
	if got := c.Stats().FastActivations; got != 1 {
		t.Errorf("fast activations = %d, want 1", got)
	}
	if got := cc.Stats().Hits; got != 1 {
		t.Errorf("HCRAC hits = %d, want 1", got)
	}
	// The fast activation must actually shorten the ACT->data latency.
	normalACT := d2 - 100 // row 9: PRE + ACT + RD
	fastACT := d3 - 300   // row 5: PRE + fast ACT + RD
	if fastACT >= normalACT {
		t.Errorf("fast path (%d) not faster than normal (%d)", fastACT, normalACT)
	}
}

type recordingObserver struct {
	acts, pres int
	lastFast   bool
}

func (r *recordingObserver) ObserveActivate(_ int, _ core.RowKey, _, _ dram.Cycle, fast bool) {
	r.acts++
	r.lastFast = fast
}

func (r *recordingObserver) ObservePrecharge(_ int, _ core.RowKey, _ dram.Cycle) {
	r.pres++
}

func TestObserverSeesActivatesAndPrecharges(t *testing.T) {
	cfg := ctrlConfig(OpenRow)
	obs := &recordingObserver{}
	cfg.Observer = obs
	c := mustCtrl(t, cfg)
	var d1, d2 dram.Cycle = -1, -1
	c.Tick(0)
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d1))
	run(c, 1, 100)
	c.EnqueueRead(readReq(Coord{Row: 9, Col: 0}, &d2)) // conflict: forces PRE
	run(c, 100, 300)
	if obs.acts != 2 {
		t.Errorf("observed ACTs = %d, want 2", obs.acts)
	}
	if obs.pres != 1 {
		t.Errorf("observed PREs = %d, want 1", obs.pres)
	}
}

func TestStatsResetKeepsQueues(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	c.Tick(0)
	var d dram.Cycle = -1
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &d))
	run(c, 1, 100)
	c.ResetStats()
	if c.Stats().ReadsServed != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if c.Mechanism() == nil {
		t.Error("Mechanism() nil")
	}
}

func TestAvgReadLatency(t *testing.T) {
	s := Stats{ReadsServed: 2, ReadLatencySum: 100}
	if s.AvgReadLatency() != 50 {
		t.Errorf("AvgReadLatency = %g", s.AvgReadLatency())
	}
	if (Stats{}).AvgReadLatency() != 0 {
		t.Error("empty AvgReadLatency not 0")
	}
	s = Stats{RowHits: 3, RowMisses: 1, RowConflicts: 0}
	if s.RowHitRate() != 0.75 {
		t.Errorf("RowHitRate = %g", s.RowHitRate())
	}
	if (Stats{}).RowHitRate() != 0 {
		t.Error("empty RowHitRate not 0")
	}
}

func TestRequestAndPolicyStrings(t *testing.T) {
	if ReadReq.String() != "read" || WriteReq.String() != "write" {
		t.Error("RequestKind.String misbehaves")
	}
	if OpenRow.String() != "open-row" || ClosedRow.String() != "closed-row" {
		t.Error("RowPolicy.String misbehaves")
	}
	r := &Request{Kind: ReadReq, Addr: 0x40, CoreID: 2, Coord: Coord{Row: 1}}
	if r.String() == "" {
		t.Error("Request.String empty")
	}
}

// TestManyRandomRequestsDrain sends a burst of random reads and writes
// (write bursts push the queue past the drain watermark, so drain mode
// flips) through each row policy on one and two ranks, into two
// controllers: one ticked on every cycle, as the reference stepper
// does, and a twin ticked only where NeedsTick holds, with SyncClock
// before each enqueue, as the event engine does. Every request must
// complete, at the same cycle in both, with identical Stats, refreshes
// interleaved and both controllers idle at the end. The every-cycle
// controller never publishes a next-issue time, so its selection ran on
// every tick the refresh engine left it, independent of the horizon the
// twin follows.
func TestManyRandomRequestsDrain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy RowPolicy
		ranks  int
	}{
		{"open-row/1-rank", OpenRow, 1},
		{"closed-row/1-rank", ClosedRow, 1},
		{"open-row/2-rank", OpenRow, 2},
		{"closed-row/2-rank", ClosedRow, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ctrlConfig(tc.policy)
			cfg.Spec.Geometry.Ranks = tc.ranks
			spec := cfg.Spec
			newCC := func() core.Mechanism {
				cc, err := core.NewChargeCache(core.ChargeCacheConfig{
					Entries:  32,
					Assoc:    2,
					Duration: spec.MillisecondsToCycles(1),
					Fast:     dram.TimingClass{RCD: 7, RAS: 20},
					Default:  spec.Timing.DefaultClass(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return cc
			}
			cfg.Mechanism = newCC()
			every := mustCtrl(t, cfg)
			cfg.Mechanism = newCC()
			twin := mustCtrl(t, cfg)

			const n, horizon = 1500, 200_000
			doneEvery := make([]dram.Cycle, n)
			doneTwin := make([]dram.Cycle, n)
			newReq := func(i int, kind RequestKind, coord Coord, done []dram.Cycle) *Request {
				return &Request{Kind: kind, Coord: coord, OnComplete: func(at dram.Cycle) { done[i] = at }}
			}
			rng := uint64(12345 + tc.ranks)
			next := func(mod int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(mod))
			}
			every.Tick(0)
			twin.Tick(0)
			enqueued, twinTicks, drainFlips := 0, 1, 0
			drain := false
			for now := dram.Cycle(1); now < horizon; now++ {
				// Every 2000 cycles, a 120-cycle write burst arrives at
				// one request per cycle; reads arrive every 40 cycles.
				burst := now%2000 < 120
				if enqueued < n && (burst || now%40 == 0) {
					kind := ReadReq
					if burst {
						kind = WriteReq
					}
					coord := Coord{Rank: next(tc.ranks), Bank: next(8), Row: next(24), Col: next(128)}
					twin.SyncClock(now - 1)
					var okEvery, okTwin bool
					if kind == ReadReq {
						okEvery = every.EnqueueRead(newReq(enqueued, kind, coord, doneEvery))
						okTwin = twin.EnqueueRead(newReq(enqueued, kind, coord, doneTwin))
					} else {
						okEvery = every.EnqueueWrite(newReq(enqueued, kind, coord, doneEvery))
						okTwin = twin.EnqueueWrite(newReq(enqueued, kind, coord, doneTwin))
					}
					if okEvery != okTwin {
						t.Fatalf("cycle %d: enqueue accepted %v every-cycle, %v twin", now, okEvery, okTwin)
					}
					if okEvery {
						enqueued++
					}
				}
				every.Tick(now)
				if every.drain != drain {
					drain = every.drain
					drainFlips++
				}
				if twin.NeedsTick(now) {
					twin.Tick(now)
					twinTicks++
				}
			}
			for i := 0; i < enqueued; i++ {
				if doneEvery[i] == 0 || doneEvery[i] != doneTwin[i] {
					t.Fatalf("request %d completed at %d every-cycle, %d twin", i, doneEvery[i], doneTwin[i])
				}
			}
			if enqueued < n {
				t.Errorf("only %d of %d requests accepted", enqueued, n)
			}
			if every.Pending() || twin.Pending() {
				t.Error("controller still pending at end")
			}
			if es, ts := every.Stats(), twin.Stats(); es != ts {
				t.Errorf("Stats differ:\nevery-cycle %+v\ntwin        %+v", es, ts)
			}
			if every.Stats().Refreshes == 0 {
				t.Errorf("no refreshes over %d cycles", horizon)
			}
			if drainFlips < 4 {
				t.Errorf("drain mode flipped %d times; the write bursts should flip it repeatedly", drainFlips)
			}
			if every.issueTimeEpoch != 0 {
				t.Error("the every-cycle controller published a next-issue time; its selection must not depend on the horizon")
			}
			if twinTicks*4 > horizon {
				t.Errorf("twin ticked on %d of %d cycles; the horizon is not skipping idle ticks", twinTicks, horizon)
			}
		})
	}
}

func TestReadLatencyHistogram(t *testing.T) {
	c := mustCtrl(t, ctrlConfig(OpenRow))
	c.Tick(0)
	var done dram.Cycle = -1
	c.EnqueueRead(readReq(Coord{Row: 5, Col: 0}, &done))
	run(c, 1, 100)
	s := c.Stats()
	var total uint64
	for _, n := range s.ReadLatencyHist {
		total += n
	}
	if total != s.ReadsServed {
		t.Errorf("histogram total %d != reads served %d", total, s.ReadsServed)
	}
	p50 := s.ReadLatencyPercentile(0.5)
	p99 := s.ReadLatencyPercentile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("percentiles p50=%g p99=%g", p50, p99)
	}
	// The single read's latency (~26 cycles) must fall under its
	// percentile upper bound.
	if avg := s.AvgReadLatency(); avg > p99 {
		t.Errorf("avg %g above p99 %g", avg, p99)
	}
	if (Stats{}).ReadLatencyPercentile(0.5) != 0 {
		t.Error("empty percentile nonzero")
	}
}
