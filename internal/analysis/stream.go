package analysis

import (
	"fmt"
	"sort"
)

// Streaming protocol. The collector cannot seal epochs: a row outcome
// is counted when the request's first command issues but bucketed by
// its arrival (and clamps fold late events into the oldest bucket), so
// a bucket emitted once may grow afterwards.
// Instead the stream is last-write-wins: whenever the epoch frontier
// advances, every bucket touched since the previous flush is emitted
// with its CURRENT value, and a consumer that replaces older copies by
// (channel, rank, bank, epoch) key converges on the final report's
// contents. Bucket counters only increase while live, so re-emission is
// monotone; evicted epochs are trimmed by the summary's FirstEpoch.
// Report() flushes the remaining dirty buckets and then emits the full
// report as a final Summary batch. Seq increases by exactly 1 per
// batch, giving SSE transports a gap-free resume cursor.

// StreamSink receives the collector's stream batches, in order, on the
// simulation goroutine (sinks that fan out must do their own locking).
type StreamSink func(StreamBatch)

// StreamBatch is one unit of the analysis stream.
type StreamBatch struct {
	// Seq numbers batches 1, 2, 3, ... with no gaps.
	Seq uint64 `json:"seq"`
	// Reset tells the consumer to discard everything accumulated so
	// far (emitted when warm-up state is cleared).
	Reset bool `json:"reset,omitempty"`
	// Channels carries the dirty channel/bank buckets, in channel
	// order, each stamped with its epoch.
	Channels []ChannelDelta `json:"channels,omitempty"`
	// Phases carries the dirty phase-profile buckets.
	Phases []PhaseEpoch `json:"phases,omitempty"`
	// Summary, set only on the final batch, is the complete report.
	Summary *Report `json:"summary,omitempty"`
}

// ChannelDelta is one channel's dirty buckets in a batch.
type ChannelDelta struct {
	Channel int            `json:"channel"`
	Epochs  []ChannelEpoch `json:"epochs,omitempty"`
	Banks   []BankDelta    `json:"banks,omitempty"`
}

// BankDelta is one bank's dirty buckets in a batch.
type BankDelta struct {
	Rank   int         `json:"rank"`
	Bank   int         `json:"bank"`
	Epochs []BankEpoch `json:"epochs,omitempty"`
}

// noteEpoch tracks the stream's epoch frontier: the first event of a
// newer epoch flushes everything dirtied before it. Events landing in
// older epochs (row outcomes of earlier arrivals, clamps) just dirty their
// buckets and ride the next flush.
func (c *Collector) noteEpoch(e uint64) {
	if c.stream == nil {
		return
	}
	if !c.epochSeen {
		c.epochSeen = true
		c.curEpoch = e
		return
	}
	if e > c.curEpoch {
		c.flush()
		c.curEpoch = e
	}
}

// flush emits one batch holding every dirty bucket's current value.
// Batches with nothing to say are suppressed (Seq stays gap-free).
func (c *Collector) flush() {
	var batch StreamBatch
	for _, cc := range c.chans {
		var cd ChannelDelta
		flushDirty(&cc.chRing, func(e uint64, b ChannelEpoch) {
			b.Epoch = e
			cd.Epochs = append(cd.Epochs, b)
		})
		for i := range cc.bankRings {
			var bd BankDelta
			flushDirty(&cc.bankRings[i], func(e uint64, b BankEpoch) {
				b.Epoch = e
				bd.Epochs = append(bd.Epochs, b)
			})
			if len(bd.Epochs) > 0 {
				bd.Rank = i / cc.banks
				bd.Bank = i % cc.banks
				cd.Banks = append(cd.Banks, bd)
			}
		}
		if len(cd.Epochs) > 0 || len(cd.Banks) > 0 {
			cd.Channel = cc.channel
			batch.Channels = append(batch.Channels, cd)
		}
	}
	if c.phaseRing != nil {
		flushDirty(c.phaseRing, func(e uint64, b PhaseEpoch) {
			b.Epoch = e
			batch.Phases = append(batch.Phases, b)
		})
	}
	if len(batch.Channels) == 0 && len(batch.Phases) == 0 {
		return
	}
	c.seq++
	batch.Seq = c.seq
	c.stream(batch)
}

// bankKey identifies a bank timeline within a channel.
type bankKey struct{ rank, bank int }

// StreamAccumulator folds stream batches last-write-wins, mirroring
// what a live dashboard or the daemon's analysis stream keeps per flight.
// The zero value is not usable; see NewStreamAccumulator.
type StreamAccumulator struct {
	channels map[int]*channelAcc
	phases   map[uint64]PhaseEpoch
	summary  *Report
	seq      uint64
}

type channelAcc struct {
	epochs map[uint64]ChannelEpoch
	banks  map[bankKey]map[uint64]BankEpoch
}

// NewStreamAccumulator returns an empty accumulator.
func NewStreamAccumulator() *StreamAccumulator {
	return &StreamAccumulator{
		channels: map[int]*channelAcc{},
		phases:   map[uint64]PhaseEpoch{},
	}
}

// Apply folds one batch in. Batches must arrive in Seq order; a Reset
// batch discards everything accumulated before it.
func (a *StreamAccumulator) Apply(b StreamBatch) {
	if b.Reset {
		a.channels = map[int]*channelAcc{}
		a.phases = map[uint64]PhaseEpoch{}
		a.summary = nil
	}
	for _, cd := range b.Channels {
		ca := a.channels[cd.Channel]
		if ca == nil {
			ca = &channelAcc{
				epochs: map[uint64]ChannelEpoch{},
				banks:  map[bankKey]map[uint64]BankEpoch{},
			}
			a.channels[cd.Channel] = ca
		}
		for _, e := range cd.Epochs {
			ca.epochs[e.Epoch] = e
		}
		for _, bd := range cd.Banks {
			k := bankKey{bd.Rank, bd.Bank}
			be := ca.banks[k]
			if be == nil {
				be = map[uint64]BankEpoch{}
				ca.banks[k] = be
			}
			for _, e := range bd.Epochs {
				be[e.Epoch] = e
			}
		}
	}
	for _, e := range b.Phases {
		a.phases[e.Epoch] = e
	}
	if b.Summary != nil {
		a.summary = b.Summary
	}
	a.seq = b.Seq
}

// Seq returns the last applied batch's sequence number.
func (a *StreamAccumulator) Seq() uint64 { return a.seq }

// Summary returns the final report if its batch arrived, else nil.
func (a *StreamAccumulator) Summary() *Report { return a.summary }

// Report rebuilds the final analysis report from the accumulated
// stream: the summary's metadata and structure, with every epoch array
// refilled from the last-write-wins buckets. It errors if the summary
// batch has not arrived. The result marshals byte-identically to the
// collector's own Report() — the streamed-equals-final contract.
func (a *StreamAccumulator) Report() (*Report, error) {
	if a.summary == nil {
		return nil, fmt.Errorf("analysis: stream incomplete: no summary batch")
	}
	sum := a.summary
	rep := &Report{
		EpochCycles: sum.EpochCycles,
		MaxEpochs:   sum.MaxEpochs,
		Totals:      sum.Totals,
	}
	for _, chSum := range sum.Channels {
		ca := a.channels[chSum.Channel]
		chRep := ChannelReport{
			Channel:       chSum.Channel,
			DroppedEpochs: chSum.DroppedEpochs,
			Clamped:       chSum.Clamped,
			FirstEpoch:    chSum.FirstEpoch,
		}
		if ca != nil {
			chRep.Epochs = fillEpochs(ca.epochs, chSum.FirstEpoch, func(b *ChannelEpoch) uint64 { return b.Epoch })
		}
		for _, bSum := range chSum.Banks {
			bRep := BankReport{
				Rank:          bSum.Rank,
				Bank:          bSum.Bank,
				DroppedEpochs: bSum.DroppedEpochs,
				Clamped:       bSum.Clamped,
				FirstEpoch:    bSum.FirstEpoch,
			}
			if ca != nil {
				bRep.Epochs = fillEpochs(ca.banks[bankKey{bSum.Rank, bSum.Bank}], bSum.FirstEpoch, func(b *BankEpoch) uint64 { return b.Epoch })
			}
			chRep.Banks = append(chRep.Banks, bRep)
		}
		rep.Channels = append(rep.Channels, chRep)
	}
	if sum.Phases != nil {
		pr := *sum.Phases
		pr.Epochs = fillEpochs(a.phases, sum.Phases.FirstEpoch, func(b *PhaseEpoch) uint64 { return b.Epoch })
		rep.Phases = &pr
	}
	return rep, nil
}

// fillEpochs sorts the accumulated buckets by epoch, dropping those the
// final window evicted (below first). The result is nil when empty, so
// it marshals like snapshot()'s output.
func fillEpochs[T any](m map[uint64]T, first uint64, epochOf func(*T) uint64) []T {
	var out []T
	for _, b := range m {
		if epochOf(&b) < first {
			continue
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return epochOf(&out[i]) < epochOf(&out[j]) })
	return out
}

// Snapshot packages everything accumulated so far as one batch stamped
// with seq: the catch-up frame the daemon sends a subscriber joining
// (or resuming) a live stream. Reset is set because a resuming consumer
// may have missed deltas that will never be re-sent — replacing its
// state wholesale with this last-write-wins image is the only correct
// continuation, and for a fresh consumer the Reset is a no-op.
func (a *StreamAccumulator) Snapshot(seq uint64) StreamBatch {
	b := StreamBatch{Seq: seq, Reset: true, Summary: a.summary}
	ids := make([]int, 0, len(a.channels))
	for id := range a.channels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ca := a.channels[id]
		cd := ChannelDelta{
			Channel: id,
			Epochs:  fillEpochs(ca.epochs, 0, func(e *ChannelEpoch) uint64 { return e.Epoch }),
		}
		keys := make([]bankKey, 0, len(ca.banks))
		for k := range ca.banks {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].rank != keys[j].rank {
				return keys[i].rank < keys[j].rank
			}
			return keys[i].bank < keys[j].bank
		})
		for _, k := range keys {
			if eps := fillEpochs(ca.banks[k], 0, func(e *BankEpoch) uint64 { return e.Epoch }); len(eps) > 0 {
				cd.Banks = append(cd.Banks, BankDelta{Rank: k.rank, Bank: k.bank, Epochs: eps})
			}
		}
		if len(cd.Epochs) > 0 || len(cd.Banks) > 0 {
			b.Channels = append(b.Channels, cd)
		}
	}
	b.Phases = fillEpochs(a.phases, 0, func(e *PhaseEpoch) uint64 { return e.Epoch })
	return b
}

// ReconstructReport replays an ordered batch sequence and rebuilds the
// final report; see StreamAccumulator.Report.
func ReconstructReport(batches []StreamBatch) (*Report, error) {
	acc := NewStreamAccumulator()
	for _, b := range batches {
		acc.Apply(b)
	}
	return acc.Report()
}

// DeltasFromReport synthesizes the stream a finished report would have
// produced, as a single batch carrying every epoch bucket plus the
// summary. The daemon uses it to serve stream subscribers of jobs that
// finished before they connected (cached, remote, or recovered from the
// durable store): applying the batch to an empty accumulator
// reconstructs exactly rep.
func DeltasFromReport(rep *Report, seq uint64) StreamBatch {
	b := StreamBatch{Seq: seq, Summary: rep}
	for _, ch := range rep.Channels {
		cd := ChannelDelta{Channel: ch.Channel, Epochs: ch.Epochs}
		for _, bk := range ch.Banks {
			cd.Banks = append(cd.Banks, BankDelta{Rank: bk.Rank, Bank: bk.Bank, Epochs: bk.Epochs})
		}
		if len(cd.Epochs) > 0 || len(cd.Banks) > 0 {
			b.Channels = append(b.Channels, cd)
		}
	}
	if rep.Phases != nil {
		b.Phases = rep.Phases.Epochs
	}
	return b
}
