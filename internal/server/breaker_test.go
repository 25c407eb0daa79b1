package server

import (
	"testing"
	"time"
)

// newTestBreaker returns a breaker with explicit knobs, mirroring how
// NewFleet arms per-worker breakers from FleetConfig.
func newTestBreaker(threshold int, reprobe time.Duration, probeLimit int) breaker {
	return breaker{threshold: threshold, reprobe: reprobe, probeLimit: probeLimit}
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(3, time.Second, 4)

	for i := 0; i < 2; i++ {
		b.failure(now)
		if b.state != breakerClosed {
			t.Fatalf("after %d/3 failures: state = %v, want closed", i+1, b.state)
		}
		if ok, _ := b.allow(now); !ok {
			t.Fatalf("closed breaker denied an attempt after %d failures", i+1)
		}
	}
	b.failure(now)
	if b.state != breakerOpen {
		t.Fatalf("after threshold failures: state = %v, want open", b.state)
	}
	if ok, _ := b.allow(now); ok {
		t.Fatal("open breaker granted an attempt before the reprobe window")
	}
}

func TestBreakerSuccessResetsFailureBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(2, time.Second, 4)

	b.failure(now)
	if rejoined := b.success(); rejoined {
		t.Fatal("success on a closed breaker reported a rejoin")
	}
	// The budget is consecutive failures: one more must not open it.
	b.failure(now)
	if b.state != breakerClosed {
		t.Fatalf("state = %v, want closed (failure budget should have reset)", b.state)
	}
}

func TestBreakerReprobeGrantsSingleProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, 4)

	b.failure(now)
	if b.state != breakerOpen {
		t.Fatalf("state = %v, want open", b.state)
	}
	if ok, _ := b.allow(now.Add(999 * time.Millisecond)); ok {
		t.Fatal("open breaker granted an attempt inside the reprobe window")
	}

	later := now.Add(time.Second)
	ok, probe := b.allow(later)
	if !ok || !probe {
		t.Fatalf("allow after reprobe window = (%v, %v), want (true, true)", ok, probe)
	}
	if b.state != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.state)
	}
	// Only one probe may be in flight: a second slot asking is denied.
	if ok, _ := b.allow(later); ok {
		t.Fatal("half-open breaker granted a second concurrent probe")
	}
}

func TestBreakerProbeSuccessRejoins(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, 4)

	b.failure(now)
	b.allow(now.Add(time.Second)) // half-open probe granted
	if rejoined := b.success(); !rejoined {
		t.Fatal("successful probe did not report a rejoin")
	}
	if b.state != breakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", b.state)
	}
	if ok, probe := b.allow(now.Add(time.Second)); !ok || probe {
		t.Fatalf("allow after rejoin = (%v, %v), want (true, false)", ok, probe)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, 4)

	b.failure(now)
	probeAt := now.Add(time.Second)
	b.allow(probeAt)
	b.failure(probeAt)
	if b.state != breakerOpen {
		t.Fatalf("state = %v, want open after failed probe", b.state)
	}
	if b.probing {
		t.Fatal("probing flag still set after the probe resolved")
	}
	// The reprobe window restarts from the failed probe, not the
	// original opening.
	if ok, _ := b.allow(probeAt.Add(999 * time.Millisecond)); ok {
		t.Fatal("reopened breaker granted an attempt inside the new reprobe window")
	}
	if ok, probe := b.allow(probeAt.Add(time.Second)); !ok || !probe {
		t.Fatal("reopened breaker denied the next reprobe")
	}
}

func TestBreakerDiesAfterProbeLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, 2)

	b.failure(now)
	for i := 0; i < 2; i++ {
		now = now.Add(time.Second)
		ok, probe := b.allow(now)
		if !ok || !probe {
			t.Fatalf("probe %d not granted (state %v)", i+1, b.state)
		}
		b.failure(now)
	}
	if b.state != breakerDead {
		t.Fatalf("state = %v, want dead after %d failed probes", b.state, 2)
	}
	if ok, _ := b.allow(now.Add(time.Hour)); ok {
		t.Fatal("dead breaker granted an attempt")
	}
	// Dead is final: even a late success (a racing in-flight attempt
	// that happened to land) must not resurrect the worker.
	if rejoined := b.success(); rejoined {
		t.Fatal("success on a dead breaker reported a rejoin")
	}
	if b.state != breakerDead {
		t.Fatalf("state = %v, want dead after late success", b.state)
	}
}

func TestBreakerUnlimitedProbes(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, -1)

	b.failure(now)
	for i := 0; i < 50; i++ {
		now = now.Add(time.Second)
		ok, probe := b.allow(now)
		if !ok || !probe {
			t.Fatalf("probe %d not granted with unlimited probe budget (state %v)", i+1, b.state)
		}
		b.failure(now)
		if b.state == breakerDead {
			t.Fatalf("breaker died after %d probes despite probeLimit < 0", i+1)
		}
	}
	// And the 51st probe still rejoins.
	now = now.Add(time.Second)
	b.allow(now)
	if rejoined := b.success(); !rejoined {
		t.Fatal("probe success after many failures did not rejoin")
	}
}

func TestBreakerInFlightSuccessWhileOpenRejoins(t *testing.T) {
	// A concurrent slot's attempt that was already running when the
	// breaker opened may still succeed; that is live proof of health.
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, 4)

	b.failure(now)
	if rejoined := b.success(); !rejoined {
		t.Fatal("in-flight success while open did not rejoin")
	}
	if b.state != breakerClosed {
		t.Fatalf("state = %v, want closed", b.state)
	}
}

func TestBreakerFailureWhileOpenExtendsWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTestBreaker(1, time.Second, 4)

	b.failure(now)
	// A straggling in-flight attempt fails 800ms later: the reprobe
	// window pushes out so the probe reflects the newest evidence.
	b.failure(now.Add(800 * time.Millisecond))
	if ok, _ := b.allow(now.Add(time.Second)); ok {
		t.Fatal("breaker granted a probe measured from the stale opening time")
	}
	if ok, probe := b.allow(now.Add(1800 * time.Millisecond)); !ok || !probe {
		t.Fatal("breaker denied the probe after the extended window elapsed")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	want := map[breakerState]string{
		breakerClosed:   "closed",
		breakerOpen:     "open",
		breakerHalfOpen: "half-open",
		breakerDead:     "dead",
	}
	for s, str := range want {
		if got := s.String(); got != str {
			t.Errorf("state %d String() = %q, want %q", s, got, str)
		}
	}
}
