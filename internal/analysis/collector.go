package analysis

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

// ChannelCollector is one channel's probe sink. It implements
// dram.CommandProbe, memctrl.Probe and core.MechProbe, so a single
// value wires all three probe points of a channel. Every method is a
// handful of ring-bucket increments; none allocates after construction
// (streaming flushes, triggered via noteEpoch, may allocate — but only
// when a stream sink is installed).
type ChannelCollector struct {
	coll        *Collector
	channel     int
	banks       int // banks per rank
	epochCycles uint64
	totals      *Totals

	bankRings []ring[BankEpoch] // index rank*banks+bank
	chRing    ring[ChannelEpoch]
}

// Interface conformance checks.
var (
	_ dram.CommandProbe = (*ChannelCollector)(nil)
	_ memctrl.Probe     = (*ChannelCollector)(nil)
	_ core.MechProbe    = (*ChannelCollector)(nil)
)

//ccsim:zeroalloc
func (cc *ChannelCollector) epoch(at dram.Cycle) uint64 {
	return uint64(at) / cc.epochCycles
}

//ccsim:zeroalloc
func (cc *ChannelCollector) bankAt(rank, bank int, e uint64) *BankEpoch {
	return cc.bankRings[rank*cc.banks+bank].at(e)
}

// ObserveCommand implements dram.CommandProbe: every issued command,
// bucketed by issue cycle (bit-identical between engines). fawStall is
// nonzero only for ACTs held by a full tFAW window; fast marks a
// lowered timing class.
//
//ccsim:zeroalloc
func (cc *ChannelCollector) ObserveCommand(cmd dram.Command, now, fawStall dram.Cycle, fast bool) {
	e := cc.epoch(now)
	cc.coll.noteEpoch(e)
	switch cmd.Kind {
	case dram.CmdACT:
		b := cc.bankAt(cmd.Rank, cmd.Bank, e)
		b.ACT++
		cc.totals.ACT++
		if fast {
			b.FastACT++
			cc.totals.FastACT++
		}
		b.FAWStallCycles += uint64(fawStall)
		cc.totals.FAWStallCycles += uint64(fawStall)
	case dram.CmdPRE:
		cc.bankAt(cmd.Rank, cmd.Bank, e).PRE++
		cc.totals.PRE++
	case dram.CmdRD:
		cc.bankAt(cmd.Rank, cmd.Bank, e).RD++
		cc.totals.RD++
	case dram.CmdWR:
		cc.bankAt(cmd.Rank, cmd.Bank, e).WR++
		cc.totals.WR++
	case dram.CmdREF:
		cc.chRing.at(e).REF++
		cc.totals.REF++
	}
}

// ObserveEnqueue implements memctrl.Probe: a queue-depth sample per
// request arrival (depths measured after the push), bucketed by the
// arrival cycle.
//
//ccsim:zeroalloc
func (cc *ChannelCollector) ObserveEnqueue(coord memctrl.Coord, isRead bool, bankReads, bankWrites, reads, writes int, now dram.Cycle) {
	ep := cc.epoch(now)
	cc.coll.noteEpoch(ep)
	b := cc.bankAt(coord.Rank, coord.Bank, ep)
	depth := uint64(bankReads + bankWrites)
	b.QueueSamples++
	b.QueueDepthSum += depth
	if depth > b.QueueDepthPeak {
		b.QueueDepthPeak = depth
	}

	e := cc.chRing.at(ep)
	total := uint64(reads + writes)
	e.QueueSamples++
	e.ReadDepthSum += uint64(reads)
	e.WriteDepthSum += uint64(writes)
	if total > e.QueueDepthPeak {
		e.QueueDepthPeak = total
	}
	cc.totals.QueueSamples++
	cc.totals.QueueDepthSum += total
	if total > cc.totals.QueueDepthPeak {
		cc.totals.QueueDepthPeak = total
	}
}

// ObserveRowOutcome implements memctrl.Probe: one request's row-buffer
// outcome, fixed by the first command issued on its behalf, bucketed
// by the request's arrival cycle. The outcome lands in an epoch that
// may already have been streamed — which is why the stream protocol is
// last-write-wins rather than epoch-sealed (see stream.go).
//
//ccsim:zeroalloc
func (cc *ChannelCollector) ObserveRowOutcome(coord memctrl.Coord, outcome memctrl.RowOutcome, arrive dram.Cycle) {
	ep := cc.epoch(arrive)
	cc.coll.noteEpoch(ep)
	b := cc.bankAt(coord.Rank, coord.Bank, ep)
	e := cc.chRing.at(ep)
	switch outcome {
	case memctrl.RowHit:
		b.RowHits++
		e.RowHits++
		cc.totals.RowHits++
	case memctrl.RowMiss:
		b.RowMisses++
		e.RowMisses++
		cc.totals.RowMisses++
	case memctrl.RowConflict:
		b.RowConflicts++
		e.RowConflicts++
		cc.totals.RowConflicts++
	}
}

// ObserveLookup implements core.MechProbe: one HCRAC lookup (per ACT).
//
//ccsim:zeroalloc
func (cc *ChannelCollector) ObserveLookup(key core.RowKey, hit bool, now dram.Cycle) {
	ep := cc.epoch(now)
	cc.coll.noteEpoch(ep)
	e := cc.chRing.at(ep)
	e.CCLookups++
	cc.totals.CCLookups++
	if hit {
		e.CCHits++
		cc.totals.CCHits++
	}
}

// ObserveInsert implements core.MechProbe: one HCRAC insert (per PRE);
// evicted marks a capacity replacement.
//
//ccsim:zeroalloc
func (cc *ChannelCollector) ObserveInsert(key core.RowKey, evicted bool, now dram.Cycle) {
	ep := cc.epoch(now)
	cc.coll.noteEpoch(ep)
	e := cc.chRing.at(ep)
	e.CCInserts++
	cc.totals.CCInserts++
	if evicted {
		e.CCEvictions++
		cc.totals.CCEvictions++
	}
}

// ObserveExpiry implements core.MechProbe: a timed invalidation,
// bucketed at its nominal cycle — for the IIC/EC walk the rollover
// cycle (a multiple of the invalidation interval, engine-invariant by
// construction), for exact expiry the detecting lookup's cycle.
//
//ccsim:zeroalloc
func (cc *ChannelCollector) ObserveExpiry(key core.RowKey, at dram.Cycle) {
	ep := cc.epoch(at)
	cc.coll.noteEpoch(ep)
	cc.chRing.at(ep).CCExpiries++
	cc.totals.CCExpiries++
}
