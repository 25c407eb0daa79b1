package memctrl

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
)

// BenchmarkControllerSchedule measures the controller's per-cycle
// scheduling cost on a sustained random-row request stream: the queue
// stays populated (row misses, conflicts, and hits mixed over all
// banks), so every Tick runs the selection machinery — the path that
// bounds simulator throughput on memory-intensive workloads.
func BenchmarkControllerSchedule(b *testing.B) {
	spec := dram.DDR31600(1)
	ctrl, err := NewController(Config{
		Spec:          spec,
		Channel:       0,
		ReadQueueCap:  64,
		WriteQueueCap: 64,
		RowPolicy:     OpenRow,
		WriteHigh:     48,
		WriteLow:      16,
		Mechanism:     core.NewBaseline(spec.Timing.DefaultClass()),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := uint64(7)
	next := func(mod int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(mod))
	}
	inFlight := 0
	newReq := func() *Request {
		req := &Request{
			Kind:  ReadReq,
			Coord: Coord{Bank: next(8), Row: next(64), Col: next(128)},
		}
		req.OnComplete = func(dram.Cycle) { inFlight-- }
		return req
	}
	b.ResetTimer()
	now := dram.Cycle(0)
	for i := 0; i < b.N; i++ {
		if inFlight < 24 {
			if ctrl.EnqueueRead(newReq()) {
				inFlight++
			}
		}
		ctrl.Tick(now)
		now++
	}
}

// TestScheduleZeroAlloc gates the scheduler's walk (//ccsim:zeroalloc)
// at run time: judging a populated two-rank controller's candidates,
// for both request kinds and with closed-row intents outstanding, must
// not allocate.
func TestScheduleZeroAlloc(t *testing.T) {
	for _, policy := range []RowPolicy{OpenRow, ClosedRow} {
		cfg := ctrlConfig(policy)
		cfg.Spec.Geometry.Ranks = 2
		c := mustCtrl(t, cfg)
		c.Tick(0)
		for i := 0; i < 48; i++ {
			coord := Coord{Rank: i % 2, Bank: i % 8, Row: i % 5, Col: i}
			if i%3 == 0 {
				c.EnqueueWrite(&Request{Kind: WriteReq, Coord: coord})
			} else {
				c.EnqueueRead(&Request{Kind: ReadReq, Coord: coord})
			}
		}
		now := dram.Cycle(1)
		for ; c.Stats().ReadsServed < 8; now++ {
			c.Tick(now)
		}
		if c.QueuedReads() == 0 || c.QueuedWrites() == 0 {
			t.Fatalf("%v: queues drained before the measurement", policy)
		}
		intents := 0
		for _, w := range c.closeIntent.words {
			intents += bits.OnesCount64(w)
		}
		if (policy == ClosedRow) != (intents > 0) {
			t.Fatalf("%v: %d close intents outstanding", policy, intents)
		}
		allocs := testing.AllocsPerRun(200, func() {
			_ = c.schedule(true, now)
			_ = c.schedule(false, now)
			_ = c.schedule(true, now+100)
		})
		if allocs != 0 {
			t.Errorf("%v: schedule allocated %.1f times per run, want 0", policy, allocs)
		}
	}
}
