package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/sim"
)

// cacheVersion guards the on-disk format; bump it when sim.Result or
// sim.Config change shape so stale files are rejected instead of
// half-decoded. It does NOT fingerprint the simulator model: entries
// are keyed by config alone, so after changing simulation code itself
// delete the results file (keeping hits valid across rebuilds is what
// makes the cache useful while iterating on campaign scripts).
const cacheVersion = 1

// ErrUncacheable marks configs that cannot be keyed: a Custom mechanism
// embeds an arbitrary function whose behaviour the hash cannot capture,
// and a trace file the process cannot read leaves the simulation input
// unfingerprintable.
var ErrUncacheable = errors.New("sweep: config cannot be content-addressed")

// Key returns the cache key of cfg: the hex SHA-256 of its canonical
// JSON encoding plus, for trace-driven configs, a digest of each trace
// file's contents. Hashing the paths alone would let a trace
// regenerated at the same path silently serve a stale cached Result
// (and a daemon's persistent cache would serve it across restarts), so
// the key changes whenever the bytes behind a path change. Two configs
// share a key exactly when every exported field matches and every
// referenced trace file holds the same bytes, so a key identifies one
// deterministic simulation outcome. Configs without trace files hash
// exactly as before, keeping historical cache entries valid.
func Key(cfg sim.Config) (string, error) {
	if cfg.Mechanism == sim.Custom || cfg.CustomMechanism != nil {
		return "", fmt.Errorf("%w: custom mechanisms embed arbitrary code", ErrUncacheable)
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("sweep: hashing config: %w", err)
	}
	h := sha256.New()
	h.Write(blob)
	for i, path := range cfg.TraceFiles {
		if path == "" {
			continue
		}
		sum, err := fileDigest(path)
		if err != nil {
			// The simulation itself will surface the real failure; a
			// result must never be stored under a key whose inputs
			// could not be fingerprinted.
			return "", fmt.Errorf("%w: trace %s: %v", ErrUncacheable, path, err)
		}
		fmt.Fprintf(h, "|trace%d:%x", i, sum)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fileDigest returns the SHA-256 of the file's contents.
func fileDigest(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// cacheFile is the persisted form: {"version":1,"entries":{key:Result}}.
type cacheFile struct {
	Version int                   `json:"version"`
	Entries map[string]sim.Result `json:"entries"`
}

// Cache is a disk-backed result store shared by the workers of a sweep
// (and across sweeps: figures reusing a baseline config hit entries
// written by earlier figures or earlier processes). Safe for concurrent
// use within one process; concurrent processes on the same file are
// not coordinated.
type Cache struct {
	path string

	mu      sync.Mutex
	entries map[string]sim.Result
	seq     uint64 // bumped per mutation; orders snapshots

	// file publishes snapshots outside mu and runs the degraded
	// memory-only mode: after a disk write fails (disk full, read-only
	// filesystem) entries stay servable, Put stops returning errors, and
	// the disk is re-probed once per probe window.
	file *durable.File

	recovery string // warning from OpenCache quarantining a bad snapshot
}

// OpenCache loads the results file at path, starting empty when the
// file does not exist yet.
//
// A snapshot that cannot be decoded — truncated by a crash, hand-edited
// into invalid JSON, or written by a different format version — does
// not fail the open: the bad file is moved aside to <path>.corrupt
// (replacing any previous quarantine) and the cache starts empty, so a
// campaign resume degrades to a fresh run instead of bricking until
// someone deletes the file by hand. RecoveryNote reports when that
// happened so callers can warn the user.
func OpenCache(path string) (*Cache, error) {
	c := &Cache{path: path, entries: map[string]sim.Result{}, file: durable.New(path)}
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: opening cache: %w", err)
	}
	var f cacheFile
	var reason string
	switch err := json.Unmarshal(blob, &f); {
	case err != nil:
		reason = fmt.Sprintf("not a results file: %v", err)
	case f.Version != cacheVersion:
		reason = fmt.Sprintf("version %d, want %d", f.Version, cacheVersion)
	}
	if reason != "" {
		quarantine := path + ".corrupt"
		if err := os.Rename(path, quarantine); err != nil {
			return nil, fmt.Errorf("sweep: cache %s is %s, and quarantining it failed: %w", path, reason, err)
		}
		c.recovery = fmt.Sprintf("sweep: cache %s is %s; moved it to %s and starting empty", path, reason, quarantine)
		return c, nil
	}
	if f.Entries != nil {
		c.entries = f.Entries
	}
	return c, nil
}

// RecoveryNote returns a human-readable warning when OpenCache found an
// undecodable snapshot and quarantined it, or "" when the open was
// clean. Callers should surface it (stderr, logs) so a silently emptied
// cache does not masquerade as a first run.
func (c *Cache) RecoveryNote() string { return c.recovery }

// Path returns the backing file.
func (c *Cache) Path() string { return c.path }

// Len returns the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the stored result for cfg, if any. Uncacheable configs
// always miss.
func (c *Cache) Get(cfg sim.Config) (sim.Result, bool) {
	key, err := Key(cfg)
	if err != nil {
		return sim.Result{}, false
	}
	return c.Lookup(key)
}

// Lookup returns the stored result for a raw content-address key (the
// hex SHA-256 Key of some config), letting services serve results to
// clients that hold only the key.
func (c *Cache) Lookup(key string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.entries[key]
	return res, ok
}

// Keys returns the content-address keys of all stored results, sorted.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Put stores the result for cfg and flushes the file, so an
// interrupted campaign loses at most the jobs still in flight.
// Uncacheable configs are skipped without error.
func (c *Cache) Put(cfg sim.Config, res sim.Result) error {
	key, err := Key(cfg)
	if errors.Is(err, ErrUncacheable) {
		return nil
	}
	if err != nil {
		return err
	}
	return c.PutKeyed(key, res)
}

// PutKeyed stores res under an already computed content-address key and
// flushes the file. Callers that hold the key (the sweep engine, the
// fleet dispatcher) use it to avoid re-hashing the config — for
// trace-driven configs Key re-digests every trace file, which is worth
// doing once per job, not once per cache operation.
func (c *Cache) PutKeyed(key string, res sim.Result) error {
	c.mu.Lock()
	c.entries[key] = res
	c.seq++
	seq := c.seq
	snapshot := make(map[string]sim.Result, len(c.entries))
	for k, v := range c.entries {
		snapshot[k] = v
	}
	c.mu.Unlock()
	// Encoding and I/O run outside mu, so flushing never blocks Get/Put;
	// concurrent completions coalesce — a snapshot older than what
	// already reached disk is dropped instead of queueing workers. Disk
	// failures never propagate: a full or read-only disk must not fail
	// the simulation whose result is being stored.
	return c.file.Write(seq, func() ([]byte, error) {
		blob, err := json.Marshal(cacheFile{Version: cacheVersion, Entries: snapshot})
		if err != nil {
			return nil, fmt.Errorf("sweep: encoding cache: %w", err)
		}
		return blob, nil
	})
}

// SetStorageProbeInterval overrides how often a degraded cache probes
// the disk for recovery (default one second). Zero or negative restores
// the default.
func (c *Cache) SetStorageProbeInterval(d time.Duration) { c.file.SetProbeInterval(d) }

// StorageHealth reports the degraded-mode state: whether the cache is
// currently memory-only, how many disk writes have failed, and how many
// times a probe restored write-through.
func (c *Cache) StorageHealth() (degraded bool, writeErrs, restores uint64) {
	return c.file.Health()
}
