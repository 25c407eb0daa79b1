package server

import "time"

// breakerState is the lifecycle of one worker's circuit breaker.
//
//	closed ──(threshold transport failures)──▶ open
//	open ──(reprobe interval elapses)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed   (the worker rejoins)
//	half-open ──(probe fails)──▶ open        (or dead after probeLimit)
//
// Unlike the permanent dead flag it replaces, an open breaker is a
// *temporary* verdict: a daemon that crashed and restarted mid-campaign
// is re-probed on an interval and rejoins the fleet, picking up pending
// units again. Only probeLimit consecutive failed probes retire the
// worker for good.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
	breakerDead
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "dead"
	}
}

// breaker tracks one worker's transport health. All fields are guarded
// by Fleet.mu — the breaker itself is not safe for unsynchronized
// use, which keeps it allocation-free and branch-cheap on the claim
// path.
type breaker struct {
	state    breakerState
	failures int  // consecutive transport failures while closed
	probes   int  // consecutive failed half-open probes
	probing  bool // a half-open probe attempt is currently in flight
	openedAt time.Time

	threshold  int           // failures that open the breaker (≥1)
	reprobe    time.Duration // open → half-open delay
	probeLimit int           // failed probes before dead; <0 = never
}

// allow reports whether the worker may take a unit now. probe is true
// when the grant is the single half-open re-probe attempt — its outcome
// decides whether the worker rejoins or goes back to open.
//
//ccsim:zeroalloc
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) < b.reprobe {
			return false, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true
	case breakerHalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	default:
		return false, false
	}
}

// success records an attempt that proved the transport healthy and
// reports whether it closed a non-closed breaker (a rejoin).
//
//ccsim:zeroalloc
func (b *breaker) success() (rejoined bool) {
	rejoined = b.state == breakerHalfOpen || b.state == breakerOpen
	if b.state == breakerDead {
		return false
	}
	b.state = breakerClosed
	b.failures = 0
	b.probes = 0
	b.probing = false
	return rejoined
}

// failure records a transport-class failure (connection loss, 5xx — not
// timeouts while closed, which keep the breaker untouched).
//
//ccsim:zeroalloc
func (b *breaker) failure(now time.Time) {
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
		}
	case breakerHalfOpen:
		b.probes++
		b.probing = false
		if b.probeLimit >= 0 && b.probes >= b.probeLimit {
			b.state = breakerDead
		} else {
			b.state = breakerOpen
			b.openedAt = now
		}
	case breakerOpen:
		// A concurrent slot's attempt that was already in flight when
		// the breaker opened; push the re-probe window out.
		b.openedAt = now
	case breakerDead:
	}
}
