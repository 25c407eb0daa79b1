package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
)

// TestFleetClassify pins the one outcome classifier every fleet caller
// shares (documented on Remote).
func TestFleetClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want verdict
	}{
		{"success", nil, verdictDone},
		{"simulation failed", &RemoteJobError{State: StateFailed, Message: "boom"}, verdictFailed},
		{"peer quarantined", &RemoteJobError{State: StateFailed, Reason: ReasonQuarantined}, verdictFailed},
		{"config rejected", fmt.Errorf("HTTP 400: bad config (%w)", ErrPermanent), verdictFailed},
		{"peer deadline", &RemoteJobError{State: StateFailed, Reason: ReasonDeadline}, verdictDeadline},
		{"admission shed", fmt.Errorf("HTTP 503: unmeetable (%w)", ErrDeadlineExceeded), verdictDeadline},
		{"ineligible", fmt.Errorf("trace outside root: %w", ErrIneligible), verdictIneligible},
		{"connection refused", errors.New("connection refused"), verdictTransport},
		{"server error", errors.New("HTTP 500: crashed"), verdictTransport},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestFleetIneligibleDoesNotConsumeTried: an ErrIneligible rejection
// records the worker as ineligible for the job but must not consume
// the job's tried mark, feed the worker's breaker, or count toward
// poison quarantine — the worker is healthy, it just cannot see the
// trace files. A transport failure of the same shape does all three.
func TestFleetIneligibleDoesNotConsumeTried(t *testing.T) {
	settle := func(err error) (*Fleet, *jobRun, *fleetWorker, bool) {
		fl := NewFleet([]Remote{&remoteFunc{name: "remote", slots: 1}, Local{Workers: 1}}, FleetConfig{})
		w := fl.workers[0]
		j := &jobRun{tried: map[*fleetWorker]int{}, ineligible: map[*fleetWorker]bool{}}
		a := fl.claimLocked(w, time.Now(), false)
		a.err, a.finish = err, time.Now()
		fl.release(a, true)
		stop, _ := fl.settle(context.Background(), j, JobSpec{}, a)
		return fl, j, w, stop
	}

	fl, j, w, stop := settle(fmt.Errorf("client: job 0: %w", ErrIneligible))
	if stop {
		t.Error("an eligibility rejection decided the job")
	}
	if _, tried := j.tried[w]; tried {
		t.Error("ErrIneligible consumed the job's tried mark")
	}
	if !j.ineligible[w] {
		t.Error("ErrIneligible not recorded as ineligibility")
	}
	if j.crashes != 0 {
		t.Errorf("crashes = %d after ErrIneligible, want 0", j.crashes)
	}
	if w.breaker.state != breakerClosed {
		t.Errorf("breaker state = %v after ErrIneligible, want closed", w.breaker.state)
	}
	if best, _, _ := fl.pickLocked(j, nil, time.Now()); best == nil || best.Name() != "local" {
		t.Error("the job has no remaining candidate after an eligibility rejection")
	}

	_, j, w, _ = settle(errors.New("connection refused"))
	if _, tried := j.tried[w]; !tried {
		t.Error("transport failure did not consume the tried mark")
	}
	if j.ineligible[w] {
		t.Error("transport failure recorded as ineligibility")
	}
	if j.crashes != 1 {
		t.Errorf("crashes = %d after transport failure, want 1", j.crashes)
	}
	if w.breaker.state != breakerOpen {
		t.Errorf("breaker state = %v after transport failure, want open", w.breaker.state)
	}
}

// TestFleetHedgeSkipsAnalysisStream: a hedge attempt never feeds the
// job's analysis stream — only the primary attempt carries the sink.
func TestFleetHedgeSkipsAnalysisStream(t *testing.T) {
	streams := make(chan bool, 2)
	slow := &remoteFunc{name: "slow", slots: 1, run: func(ctx context.Context, spec JobSpec) (JobStatus, error) {
		streams <- spec.Config.Analysis.Stream != nil
		<-ctx.Done()
		return JobStatus{}, ctx.Err()
	}}
	fast := &remoteFunc{name: "fast", slots: 1, run: func(ctx context.Context, spec JobSpec) (JobStatus, error) {
		streams <- spec.Config.Analysis.Stream != nil
		return Local{}.Run(ctx, spec)
	}}
	fl := NewFleet([]Remote{slow, fast}, FleetConfig{HedgeAfter: 20 * time.Millisecond})
	cfg := analysisCfg(501)
	cfg.Analysis.Stream = func(analysis.StreamBatch) {}
	out, err := fl.Run(context.Background(), JobSpec{Config: cfg}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker.Name() != "fast" {
		t.Errorf("winner = %s, want the hedge on fast", out.Worker.Name())
	}
	if primary, hedge := <-streams, <-streams; !primary || hedge {
		t.Errorf("stream sink on primary=%v hedge=%v, want true/false", primary, hedge)
	}
	if st := fl.Stats(); st.HedgesLaunched != 1 || st.HedgesWon != 1 || st.Down != 0 {
		t.Errorf("stats = %+v, want one hedge launched and won, no worker down", st)
	}
}

// TestAdaptiveHedgeThreshold pins the HedgeAdaptive cutoff: undefined
// below the sample floor, then 3× the p95 latency with a 250ms floor.
func TestAdaptiveHedgeThreshold(t *testing.T) {
	var lat []time.Duration
	for i := 0; i < 7; i++ {
		lat = append(lat, 10*time.Millisecond)
	}
	if _, ok := adaptiveHedgeThreshold(lat); ok {
		t.Error("threshold defined with fewer than 8 samples")
	}

	lat = append(lat, 10*time.Millisecond)
	thr, ok := adaptiveHedgeThreshold(lat)
	if !ok || thr != 250*time.Millisecond {
		t.Errorf("uniform fast latencies: threshold = %v/%v, want 250ms floor", thr, ok)
	}

	lat[len(lat)-1] = 200 * time.Millisecond // p95 of 8 samples = max
	thr, ok = adaptiveHedgeThreshold(lat)
	if !ok || thr != 600*time.Millisecond {
		t.Errorf("threshold = %v/%v, want 3×p95 = 600ms", thr, ok)
	}
}
