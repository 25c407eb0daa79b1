package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
)

// jobJournal is the durable job index the manager keeps beside the
// result cache (<cache path>.jobs). The cache stores results by content
// address only; the journal remembers which job IDs resolved to which
// keys, so after a restart (or after retention pruning evicts the job
// table entry) GET /v1/analysis/{id} and the stream endpoint still
// resolve an old job ID to its cached report, and the fleet /metrics
// aggregates are rebuilt from the cached reports. The manager journals
// every job that reaches a terminal state, cancels included, so after
// a restart no such ID is issued again (maxID).
//
// All methods are safe on a nil receiver (a manager without a cache has
// no journal) and the file is written atomically (durable.File), so a
// crash mid-write leaves the previous generation intact.
type jobJournal struct {
	mu    sync.Mutex
	limit int // entries retained, oldest dropped first (<=0: unbounded)
	byID  map[string]journalEntry
	order []string // IDs oldest-first
	seq   uint64   // bumped per record; orders snapshots

	// file publishes snapshots outside mu and runs the degraded
	// memory-only mode: after a disk write fails record keeps upserting
	// the in-memory index (so ID resolution and numbering stay correct
	// for the life of the process) and the disk is re-probed once per
	// probe window.
	file *durable.File
}

// journalEntry records one terminal job.
type journalEntry struct {
	ID         string    `json:"id"`
	Key        string    `json:"key,omitempty"` // content address of the config
	Label      string    `json:"label,omitempty"`
	Tenant     string    `json:"tenant,omitempty"` // owning tenant ("" in open mode)
	State      JobState  `json:"state"`
	Worker     string    `json:"worker,omitempty"` // "local", "cache", or a peer name
	FinishedAt time.Time `json:"finished_at"`
}

// journalFile is the on-disk format.
type journalFile struct {
	Version int            `json:"version"`
	Jobs    []journalEntry `json:"jobs"`
}

// openJournal loads the journal at path, starting empty when the file
// does not exist. A file that no longer parses is quarantined to
// path+".corrupt" — the bytes survive for inspection and the daemon
// keeps running — rather than aborting startup or being overwritten.
func openJournal(path string, limit int) *jobJournal {
	l := &jobJournal{limit: limit, byID: map[string]journalEntry{}, file: durable.New(path)}
	blob, err := os.ReadFile(path)
	if err != nil {
		return l
	}
	var f journalFile
	if err := json.Unmarshal(blob, &f); err != nil {
		_ = os.Rename(path, path+".corrupt")
		return l
	}
	for _, e := range f.Jobs {
		if e.ID == "" {
			continue
		}
		if _, dup := l.byID[e.ID]; !dup {
			l.order = append(l.order, e.ID)
		}
		l.byID[e.ID] = e
	}
	return l
}

// record upserts the entries and persists the journal. Entries beyond
// the retention limit are dropped oldest-first, mirroring the
// manager's job-table pruning. The snapshot is taken under l.mu and
// written outside it, so a slow disk never stalls lookups; write
// errors never fail the caller — a daemon on a full or read-only disk
// keeps serving with the journal memory-only (/readyz warns).
func (l *jobJournal) record(entries ...journalEntry) {
	if l == nil || len(entries) == 0 {
		return
	}
	l.mu.Lock()
	for _, e := range entries {
		if e.ID == "" {
			continue
		}
		if _, dup := l.byID[e.ID]; !dup {
			l.order = append(l.order, e.ID)
		}
		l.byID[e.ID] = e
	}
	if drop := len(l.order) - l.limit; l.limit > 0 && drop > 0 {
		for _, id := range l.order[:drop] {
			delete(l.byID, id)
		}
		l.order = append([]string(nil), l.order[drop:]...)
	}
	l.seq++
	seq := l.seq
	f := journalFile{Version: 1, Jobs: l.entriesLocked()}
	l.mu.Unlock()
	_ = l.file.Write(seq, func() ([]byte, error) { return json.Marshal(f) })
}

// lookup returns the journaled entry for a job ID.
func (l *jobJournal) lookup(id string) (journalEntry, bool) {
	if l == nil {
		return journalEntry{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byID[id]
	return e, ok
}

// entries returns a snapshot of every journaled entry, oldest first.
func (l *jobJournal) entries() []journalEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entriesLocked()
}

// entriesLocked copies the entries oldest first. Caller holds l.mu.
func (l *jobJournal) entriesLocked() []journalEntry {
	out := make([]journalEntry, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, l.byID[id])
	}
	return out
}

// maxID returns the highest numeric job ID in the journal, so a
// restarted manager resumes numbering above every ID it ever persisted
// instead of reissuing them.
func (l *jobJournal) maxID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var max uint64
	for id := range l.byID {
		var n uint64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}
