package server

import "sort"

// schedQueue is the staging queue of the multi-tenant gateway: the
// single FIFO channel the manager used to feed its workers from is
// replaced by one FIFO subqueue per tenant plus a deficit-round-robin
// pick, so one tenant's giant campaign can no longer starve everyone
// behind it. Scheduling properties:
//
//   - strict priority between classes: queued work of a higher
//     Tenant.Priority class is always picked before lower classes,
//   - weighted fairness within a class: while several tenants have
//     queued work, each is picked in proportion to its Weight (deficit
//     counters replenished by weight, spent one per pick),
//   - per-tenant concurrency caps: a tenant at its MaxConcurrent is
//     skipped — its flights stay queued — without blocking anyone else,
//   - FIFO within a tenant, preserving the old single-caller behavior
//     exactly when only one (anonymous) tenant exists.
//
// The queue is owned by the Manager and every method is called with
// Manager.mu held; workers block on Manager.qcond when pick returns
// nil (empty, or every queued tenant is at its cap).
type schedQueue struct {
	capacity int
	total    int // queued flights across all tenants
	subs     map[string]*tenantSub
	active   []*tenantSub // tenants with queued flights, activation order
	seq      uint64       // arrival stamp, for newest-first preemption
}

// tenantSub is one tenant's subqueue plus its scheduling state.
type tenantSub struct {
	name          string
	weight        int
	priority      int
	maxConcurrent int
	flights       []*flight
	deficit       int
	running       int // flights picked and not yet finished
}

func newSchedQueue(capacity int) *schedQueue {
	return &schedQueue{capacity: capacity, subs: map[string]*tenantSub{}}
}

// sub returns (allocating on first use) the tenant's subqueue,
// refreshing its scheduling parameters from t so registry edits across
// restarts take effect.
func (q *schedQueue) sub(t Tenant) *tenantSub {
	s := q.subs[t.Name]
	if s == nil {
		s = &tenantSub{name: t.Name}
		q.subs[t.Name] = s
	}
	s.weight = t.weight()
	s.priority = t.Priority
	s.maxConcurrent = t.MaxConcurrent
	return s
}

// push queues f at the tail of its tenant's subqueue. The caller has
// already checked capacity (or preempted to make room).
func (q *schedQueue) push(f *flight, owner Tenant) {
	s := q.sub(owner)
	q.seq++
	f.seq = q.seq
	if len(s.flights) == 0 {
		q.active = append(q.active, s)
	}
	s.flights = append(s.flights, f)
	q.total++
}

// eligible reports whether s has queued work the scheduler may start.
func (s *tenantSub) eligible() bool {
	return len(s.flights) > 0 && (s.maxConcurrent <= 0 || s.running < s.maxConcurrent)
}

// pick dequeues the next flight to run: the highest eligible priority
// class, deficit-weighted round robin within it. It returns nil when
// nothing is startable (queue empty, or every tenant with work is at
// its concurrency cap); the picked flight's tenant is accounted one
// running slot, released via release().
func (q *schedQueue) pick() *flight {
	best, any := 0, false
	for _, s := range q.active {
		if s.eligible() && (!any || s.priority > best) {
			best, any = s.priority, true
		}
	}
	if !any {
		return nil
	}
	// Two passes: serve the first best-class tenant with deficit left;
	// when the whole class is spent, replenish each tenant by its
	// weight and serve again. A tenant staying busy therefore gets
	// weight picks per replenish round — proportional share.
	for pass := 0; pass < 2; pass++ {
		for _, s := range q.active {
			if !s.eligible() || s.priority != best {
				continue
			}
			if s.deficit > 0 {
				return q.serve(s)
			}
		}
		for _, s := range q.active {
			if s.eligible() && s.priority == best {
				s.deficit += s.weight
			}
		}
	}
	return nil // unreachable: replenish guarantees a positive deficit
}

// serve pops the head of s's subqueue and spends one deficit unit.
func (q *schedQueue) serve(s *tenantSub) *flight {
	f := s.flights[0]
	copy(s.flights, s.flights[1:])
	s.flights = s.flights[:len(s.flights)-1]
	s.deficit--
	s.running++
	q.total--
	if len(s.flights) == 0 {
		q.deactivate(s)
	}
	return f
}

// release returns the running slot a picked flight held, on finish.
func (q *schedQueue) release(f *flight) {
	if s := q.subs[f.tenant]; s != nil && s.running > 0 {
		s.running--
	}
}

// remove drops a canceled flight from its subqueue so its slot frees
// immediately instead of tombstoning the queue. Reports whether the
// flight was queued.
func (q *schedQueue) remove(f *flight) bool {
	s := q.subs[f.tenant]
	if s == nil {
		return false
	}
	for i, queued := range s.flights {
		if queued == f {
			s.flights = append(s.flights[:i], s.flights[i+1:]...)
			q.total--
			if len(s.flights) == 0 {
				q.deactivate(s)
			}
			return true
		}
	}
	return false
}

// deactivate removes an emptied subqueue from the active rotation and
// resets its deficit, so a returning tenant starts a fresh round
// instead of cashing in banked credit.
func (q *schedQueue) deactivate(s *tenantSub) {
	s.deficit = 0
	for i, a := range q.active {
		if a == s {
			q.active = append(q.active[:i], q.active[i+1:]...)
			return
		}
	}
}

// preemptible returns up to need queued flights of classes strictly
// below priority that spare does not protect, lowest class first and
// newest arrival first within a class — the flights a higher-priority
// submission may preempt when the queue is full. Returns nil when fewer
// than need exist (partial preemption would cancel work without room).
func (q *schedQueue) preemptible(need, priority int, spare func(*flight) bool) []*flight {
	var victims []*flight
	for _, s := range q.subs {
		for _, f := range s.flights {
			if f.priority < priority && !spare(f) {
				victims = append(victims, f)
			}
		}
	}
	if len(victims) < need {
		return nil
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].priority != victims[j].priority {
			return victims[i].priority < victims[j].priority
		}
		return victims[i].seq > victims[j].seq
	})
	return victims[:need]
}

// queuedFor reports how many flights tenant name has queued.
func (q *schedQueue) queuedFor(name string) int {
	if s := q.subs[name]; s != nil {
		return len(s.flights)
	}
	return 0
}

// runningFor reports how many picked flights tenant name has in flight.
func (q *schedQueue) runningFor(name string) int {
	if s := q.subs[name]; s != nil {
		return s.running
	}
	return 0
}
