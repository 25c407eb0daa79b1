package memctrl

import "repro/internal/dram"

// RowOutcome is a request's row-buffer outcome, fixed by the first
// command the scheduler issues on its behalf and counted exactly once
// per request (see Controller.classify): a column command is a hit, an
// ACT a miss, a PRE a conflict.
type RowOutcome uint8

const (
	// RowHit: the request's first command was a column command — its
	// row was already open.
	RowHit RowOutcome = iota
	// RowMiss: the request's first command was an ACT on a precharged
	// bank.
	RowMiss
	// RowConflict: the request's first command was a PRE closing
	// another row.
	RowConflict
)

// String implements fmt.Stringer.
func (o RowOutcome) String() string {
	switch o {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	default:
		return "conflict"
	}
}

// Probe receives controller-level perf-analyzer events (internal/
// analysis). Implementations must only observe — the controller's
// scheduling decisions are independent of the probe's presence, which
// the differential suite enforces by running analysis on and off.
type Probe interface {
	// ObserveEnqueue fires after a request joins its per-(rank, bank)
	// queue: a queue-depth sample at the arrival cycle. bankReads and
	// bankWrites are the target bank's queue depths after the push;
	// reads and writes are the controller-wide depths. Arrival order
	// and stamps are identical between the execution engines.
	ObserveEnqueue(coord Coord, isRead bool, bankReads, bankWrites, reads, writes int, now dram.Cycle)

	// ObserveRowOutcome fires when the first command issued on a
	// request's behalf fixes its row-buffer outcome. arrive is the
	// request's arrival cycle, the bucket for outcome timelines; the
	// outcome, its issue cycle and the arrival stamp are identical
	// between the execution engines.
	ObserveRowOutcome(coord Coord, outcome RowOutcome, arrive dram.Cycle)
}
