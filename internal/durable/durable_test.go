package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// snapshot returns an encode func producing s and counting its calls.
func snapshot(s string, calls *int) func() ([]byte, error) {
	return func() ([]byte, error) {
		if calls != nil {
			*calls++
		}
		return []byte(s), nil
	}
}

func wantFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
}

func wantHealth(t *testing.T, f *File, degraded bool, writeErrs, restores uint64) {
	t.Helper()
	d, e, r := f.Health()
	if d != degraded || e != writeErrs || r != restores {
		t.Fatalf("Health() = (%v, %d, %d), want (%v, %d, %d)", d, e, r, degraded, writeErrs, restores)
	}
}

// TestWriteDegradesProbesAndRestores walks the whole degraded-mode
// cycle: a failed publish degrades without surfacing an error and
// leaves the previous generation intact, writes inside the probe window
// skip the disk without encoding, and the first probe that lands
// restores write-through with the complete newest snapshot.
func TestWriteDegradesProbesAndRestores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	f := New(path)
	f.SetProbeInterval(time.Hour)

	if err := f.Write(1, snapshot("one", nil)); err != nil {
		t.Fatal(err)
	}
	wantFile(t, path, "one")
	wantHealth(t, f, false, 0, 0)

	// A directory squatting on the temp path fails every publish, like
	// a dead disk would.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(2, snapshot("two", nil)); err != nil {
		t.Fatalf("disk failure surfaced from Write: %v", err)
	}
	wantHealth(t, f, true, 1, 0)
	wantFile(t, path, "one")

	// Inside the probe window the disk is skipped, encode included.
	calls := 0
	if err := f.Write(3, snapshot("three", &calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("encode ran %d times inside the probe window, want 0", calls)
	}
	wantHealth(t, f, true, 1, 0)

	// A probe against a still-dead disk re-degrades and restarts the
	// window.
	f.SetProbeInterval(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if err := f.Write(4, snapshot("four", nil)); err != nil {
		t.Fatal(err)
	}
	wantHealth(t, f, true, 2, 0)

	// The disk returns: the next probe lands the newest snapshot.
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := f.Write(5, snapshot("five", nil)); err != nil {
		t.Fatal(err)
	}
	wantHealth(t, f, false, 2, 1)
	wantFile(t, path, "five")

	// Restored: writes land immediately again, no window.
	f.SetProbeInterval(time.Hour)
	if err := f.Write(6, snapshot("six", nil)); err != nil {
		t.Fatal(err)
	}
	wantFile(t, path, "six")
	wantHealth(t, f, false, 2, 1)
}

// TestWriteDropsStaleSnapshot: a snapshot numbered at or below the one
// on disk is dropped without encoding, so an out-of-order writer can
// never roll the file back.
func TestWriteDropsStaleSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	f := New(path)
	if err := f.Write(5, snapshot("five", nil)); err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, seq := range []uint64{4, 5} {
		if err := f.Write(seq, snapshot(fmt.Sprint("stale", seq), &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Errorf("encode ran %d times for stale snapshots, want 0", calls)
	}
	wantFile(t, path, "five")
	wantHealth(t, f, false, 0, 0)
}

// TestWriteReturnsEncodeError: an unencodable snapshot is a programming
// error, surfaced to the caller and never mistaken for a disk state.
// Nothing is published and the sequence number is not consumed.
func TestWriteReturnsEncodeError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	f := New(path)
	bad := errors.New("unencodable")
	err := f.Write(1, func() ([]byte, error) { return nil, bad })
	if !errors.Is(err, bad) {
		t.Fatalf("Write = %v, want the encode error", err)
	}
	wantHealth(t, f, false, 0, 0)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed encode published %s (stat err %v)", path, err)
	}
	if err := f.Write(1, snapshot("one", nil)); err != nil {
		t.Fatal(err)
	}
	wantFile(t, path, "one")
}

// TestSetProbeIntervalDefault: zero or negative restores the default.
func TestSetProbeIntervalDefault(t *testing.T) {
	f := New(filepath.Join(t.TempDir(), "snap.json"))
	for _, d := range []time.Duration{-time.Second, 0} {
		f.SetProbeInterval(time.Minute)
		f.SetProbeInterval(d)
		if got := f.probeInterval(); got != defaultStorageProbe {
			t.Errorf("SetProbeInterval(%v): interval %v, want %v", d, got, defaultStorageProbe)
		}
	}
}

// TestConcurrentWritesKeepNewest: writers racing with out-of-order
// sequence numbers leave the newest snapshot on disk.
func TestConcurrentWritesKeepNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	f := New(path)
	const n = 32
	var wg sync.WaitGroup
	for i := n; i >= 1; i-- {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			if err := f.Write(seq, snapshot(fmt.Sprint(seq), nil)); err != nil {
				t.Error(err)
			}
		}(uint64(i))
	}
	wg.Wait()
	wantFile(t, path, fmt.Sprint(n))
}
