package memctrl

// The controller keeps its request queues per (rank, bank) rather than
// as one flat FIFO. FR-FCFS order is recovered from per-request arrival
// sequence numbers: within a bank the queue is arrival-ordered, so each
// bank contributes at most one candidate per pick (the oldest row-hit
// for the first-ready pick; the oldest row-changer, or a precharged
// bank's head, for the FCFS pick), and each pick is the minimum sequence
// number among the banks whose candidate is legal this cycle. Legality is one ready-at read per candidate off the bank and
// rank registers — the walks the flat queue paid on every cycle collapse
// to a handful of register comparisons.

// kindQ is one bank's queue for one request kind, arrival-ordered.
//
// uniform/uniformRow track whether every queued request targets one row
// — the overwhelmingly common case for streaming access patterns — so
// candidate lookups are O(1) instead of scans. The flag is maintained
// conservatively: enqueues update it exactly while the queue grows from
// empty, dequeues never restore it (a stale false only costs a scan,
// never a wrong answer), and it resets when the queue drains.
type kindQ struct {
	q          []*Request
	uniform    bool
	uniformRow int

	// Candidate memos: the scheduler asks for the same (queue, row)
	// lookups across consecutive cycles while the queue is unchanged. ver bumps on every mutation; a memo is
	// valid while its ver and row match. Deep non-uniform queues —
	// write drains, conflict-heavy workloads — go from a scan per
	// lookup to a scan per mutation.
	ver        uint32
	hitVer     uint32
	hitRow     int
	hitPos     int // -1: no request targets hitRow
	changerVer uint32
	changerRow int
	changerPos int // -1: every request targets changerRow
}

func (k *kindQ) push(req *Request) {
	if len(k.q) == 0 {
		k.uniform = true
		k.uniformRow = req.Coord.Row
	} else if k.uniform && req.Coord.Row != k.uniformRow {
		k.uniform = false
	}
	k.q = append(k.q, req)
	k.ver++
}

func (k *kindQ) remove(pos int) {
	q := k.q
	copy(q[pos:], q[pos+1:])
	q[len(q)-1] = nil
	k.q = q[:len(q)-1]
	k.ver++
}

// oldestRowHit returns the oldest request targeting row, or nil.
// Requests ahead of it targeting other rows do not block it (that is
// the "first-ready" half of FR-FCFS).
func (k *kindQ) oldestRowHit(row int) (*Request, int) {
	if k.uniform {
		if k.uniformRow == row && len(k.q) > 0 {
			return k.q[0], 0
		}
		return nil, -1
	}
	if k.hitVer == k.ver && k.hitRow == row {
		if k.hitPos < 0 {
			return nil, -1
		}
		return k.q[k.hitPos], k.hitPos
	}
	k.hitVer, k.hitRow, k.hitPos = k.ver, row, -1
	for pos, req := range k.q {
		if req.Coord.Row == row {
			k.hitPos = pos
			return req, pos
		}
	}
	return nil, -1
}

// oldestRowChanger returns the oldest request not targeting row: the
// request on whose behalf the scheduler would precharge an open row.
func (k *kindQ) oldestRowChanger(row int) *Request {
	if k.uniform {
		if k.uniformRow != row && len(k.q) > 0 {
			return k.q[0]
		}
		return nil
	}
	if k.changerVer == k.ver && k.changerRow == row {
		if k.changerPos < 0 {
			return nil
		}
		return k.q[k.changerPos]
	}
	k.changerVer, k.changerRow, k.changerPos = k.ver, row, -1
	for pos, req := range k.q {
		if req.Coord.Row != row {
			k.changerPos = pos
			return req
		}
	}
	return nil
}

// anyFor reports whether the queue holds a request for row.
func (k *kindQ) anyFor(row int) bool {
	if k.uniform {
		return len(k.q) > 0 && k.uniformRow == row
	}
	for _, req := range k.q {
		if req.Coord.Row == row {
			return true
		}
	}
	return false
}

// bankQ holds one bank's queued requests per kind.
type bankQ struct {
	reads  kindQ
	writes kindQ
}

// kind returns the queue for one request kind.
func (b *bankQ) kind(isRead bool) *kindQ {
	if isRead {
		return &b.reads
	}
	return &b.writes
}

// bankSet is a bitmask over a channel's banks (rank-major index), used
// to visit only banks with queued work.
type bankSet struct {
	words []uint64
}

func newBankSet(banks int) bankSet {
	return bankSet{words: make([]uint64, (banks+63)/64)}
}

func (s *bankSet) set(i int)   { s.words[i>>6] |= 1 << (uint(i) & 63) }
func (s *bankSet) clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// noSeq is the "no candidate selected" sentinel: larger than any
// assigned arrival sequence number.
const noSeq = ^uint64(0)
