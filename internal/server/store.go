package server

import (
	"container/list"
	"sync"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// resultStore is the gateway's tiered result store: a bounded hot
// in-memory LRU in front of the persistent content-addressed
// sweep.Cache. Submission-path lookups (the operation every client of
// a busy daemon performs) hit the LRU first; misses fall through to
// the cache and promote the entry, so the working set of a campaign —
// typically a small, hot subset of a daemon's accumulated history —
// is served without touching the cold tier. Hit/miss/eviction
// counters surface on /metrics as the result_store block.
//
// The store only changes where reads are answered from; every write
// still lands in the sweep.Cache under the same content-address key,
// so cache files, sweep.Key semantics, and restart behavior are
// byte-identical with and without it.
type resultStore struct {
	cache *sweep.Cache // cold tier; never nil (cacheless managers have no store)

	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      uint64 // hot-tier lookups answered from the LRU
	coldHits  uint64 // misses answered by the persistent cache (then promoted)
	misses    uint64 // lookups absent from both tiers
	evictions uint64 // hot entries displaced by promotion past capacity
}

// storeEntry is one hot-tier element.
type storeEntry struct {
	key string
	res sim.Result
}

// defaultHotResults sizes the hot tier when the config leaves it 0.
const defaultHotResults = 256

func newResultStore(cache *sweep.Cache, capacity int) *resultStore {
	if cache == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = defaultHotResults
	}
	return &resultStore{
		cache:    cache,
		capacity: capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
}

// Lookup returns the stored result for key, hot tier first. All
// methods are nil-safe: a cacheless manager has no store and every
// lookup misses.
func (s *resultStore) Lookup(key string) (sim.Result, bool) {
	if s == nil {
		return sim.Result{}, false
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.hits++
		s.ll.MoveToFront(el)
		res := el.Value.(*storeEntry).res
		s.mu.Unlock()
		return res, true
	}
	s.mu.Unlock()
	res, ok := s.cache.Lookup(key)
	s.mu.Lock()
	if ok {
		s.coldHits++
		s.promoteLocked(key, res)
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return res, ok
}

// Put writes res through to the persistent cache and promotes it into
// the hot tier, so the just-finished flight's subscribers (and the
// resubmissions that immediately follow a campaign) are served hot.
func (s *resultStore) Put(key string, res sim.Result) error {
	if s == nil {
		return nil
	}
	if err := s.cache.PutKeyed(key, res); err != nil {
		return err
	}
	s.mu.Lock()
	s.promoteLocked(key, res)
	s.mu.Unlock()
	return nil
}

// promoteLocked inserts (or refreshes) key at the LRU front, evicting
// the coldest entry beyond capacity. Caller holds s.mu.
func (s *resultStore) promoteLocked(key string, res sim.Result) {
	if el, ok := s.items[key]; ok {
		el.Value.(*storeEntry).res = res
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&storeEntry{key: key, res: res})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*storeEntry).key)
		s.evictions++
	}
}

// StoreMetrics is the result_store block of /metrics: the tiered
// store's hot-tier occupancy and traffic split.
type StoreMetrics struct {
	HotEntries  int    `json:"hot_entries"`
	HotCapacity int    `json:"hot_capacity"`
	HotHits     uint64 `json:"hot_hits"`
	ColdHits    uint64 `json:"cold_hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
}

// metrics snapshots the store counters.
func (s *resultStore) metrics() *StoreMetrics {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &StoreMetrics{
		HotEntries:  s.ll.Len(),
		HotCapacity: s.capacity,
		HotHits:     s.hits,
		ColdHits:    s.coldHits,
		Misses:      s.misses,
		Evictions:   s.evictions,
	}
}
