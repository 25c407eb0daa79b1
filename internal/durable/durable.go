// Package durable is the one degraded-mode snapshot writer behind the
// daemon's durable state: the sweep result cache and the server's job
// journal each hold a File.
//
// A File publishes complete snapshots of its owner's in-memory state
// atomically (temp file + rename), so a crash mid-write never corrupts
// the previous generation. Disk failures never reach the caller: the
// owner's state is an availability optimization, and a full or
// read-only disk must not fail the work being recorded. Instead the
// File degrades to memory-only (Health reports it), skips the disk
// except for one probe per probe window, and restores write-through on
// the first write that lands — each snapshot is complete, so nothing
// accumulated while degraded is lost.
package durable

import (
	"os"
	"sync"
	"time"
)

// defaultStorageProbe spaces restore probes while degraded.
const defaultStorageProbe = time.Second

// File is one atomically rewritten snapshot file. Safe for concurrent
// use; the zero value is not usable, call New.
type File struct {
	path string

	// mu serializes snapshot publishes and guards the state below. It
	// is never held by the owner's data lock, so readers of the owner's
	// in-memory state never wait on the disk.
	mu         sync.Mutex
	written    uint64 // seq of the newest snapshot on disk
	degraded   bool
	writeErrs  uint64
	restores   uint64
	lastProbe  time.Time
	probeEvery time.Duration // 0 = defaultStorageProbe
}

// New returns a writer for the snapshot file at path.
func New(path string) *File { return &File{path: path} }

// Write publishes the snapshot numbered seq, which encode renders.
// Owners number snapshots under their own data lock and call Write
// outside it, so concurrent writes may arrive out of order: a snapshot
// older than one already on disk is dropped without encoding, and
// encode is likewise skipped while degraded inside the probe window.
// Write returns only encode errors — an unencodable snapshot is a
// programming error, not a disk state — never disk errors.
func (f *File) Write(seq uint64, encode func() ([]byte, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if seq <= f.written {
		return nil
	}
	now := time.Now()
	if f.degraded && now.Sub(f.lastProbe) < f.probeInterval() {
		return nil // memory-only: skip the disk until the next probe window
	}
	blob, err := encode()
	if err != nil {
		return err
	}
	//lint:allow lockio mu is a dedicated I/O-serialization mutex ordering snapshot publishes; owners call Write outside their data locks, so their readers never wait on disk
	if err := publish(f.path, blob); err != nil {
		f.noteWriteErrorLocked(now)
		return nil
	}
	if f.degraded {
		f.degraded = false
		f.restores++
	}
	f.written = seq
	return nil
}

// publish lands blob at path atomically: a temp file, then a rename.
func publish(path string, blob []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// noteWriteErrorLocked records a failed disk write and (re)enters
// degraded memory-only mode. Caller holds f.mu.
func (f *File) noteWriteErrorLocked(now time.Time) {
	f.writeErrs++
	f.degraded = true
	f.lastProbe = now
}

// probeInterval returns the configured restore-probe spacing. Caller
// holds f.mu.
func (f *File) probeInterval() time.Duration {
	if f.probeEvery > 0 {
		return f.probeEvery
	}
	return defaultStorageProbe
}

// SetProbeInterval overrides how often a degraded File probes the disk
// for recovery (default one second). Zero or negative restores the
// default.
func (f *File) SetProbeInterval(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.probeEvery = max(d, 0)
}

// Health reports the degraded-mode state: whether the File is currently
// memory-only, how many disk writes have failed, and how many times a
// probe restored write-through.
func (f *File) Health() (degraded bool, writeErrs, restores uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degraded, f.writeErrs, f.restores
}
