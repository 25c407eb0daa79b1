package server_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/server"
)

// TestQueuedAnalysisStreamEnds ends a queued analysis flight in each of
// the four ways a flight can end without running, while a client
// follows its live analysis stream. client.StreamAnalysis must return
// the stream's error frame, naming the cause, well before its context
// expires: a subscriber never waits on a flight that will not run.
func TestQueuedAnalysisStreamEnds(t *testing.T) {
	cases := []struct {
		name string
		end  func(t *testing.T, m *server.Manager, id string) // stops the queued job id without running it
		want string                                           // in the stream's error
	}{
		{"cancel", func(t *testing.T, m *server.Manager, id string) {
			if _, err := m.Cancel(server.Tenant{Name: "batch"}, id); err != nil {
				t.Fatal(err)
			}
		}, "canceled by client"},
		{"preempt", func(t *testing.T, m *server.Manager, id string) {
			if _, err := m.Submit(server.Tenant{Name: "urgent"}, []server.JobSpec{{Config: fiTiny(7302)}}); err != nil {
				t.Fatalf("priority submission: %v", err)
			}
		}, "preempted"},
		{"deadline", func(*testing.T, *server.Manager, string) {}, "deadline exceeded"},
		{"drain", func(t *testing.T, m *server.Manager, id string) {
			go func() { _ = m.Drain(context.Background()) }()
		}, "shutting down"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := server.NewRegistry([]server.Tenant{
				{Name: "batch", Token: "tb"},
				{Name: "urgent", Token: "tu", Priority: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			// The gated peer is the only worker: the blocker holds it, and
			// the watched job fills the one-flight queue behind it.
			gate := make(chan struct{})
			d := startFleetDaemon(t, server.ManagerConfig{
				Workers: server.NoLocalWorkers, Remotes: []server.Remote{server.GatedRemote(gate)},
				QueueDepth: 1, Tenants: reg,
			})
			defer close(gate)
			c := fiClient(d, "tb")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			batch := server.Tenant{Name: "batch"}
			blocker, err := d.m.Submit(batch, []server.JobSpec{{Label: "blocker", Config: fiTiny(7300)}})
			if err != nil {
				t.Fatal(err)
			}
			for st, _ := d.m.Job(batch, blocker[0].ID); st.State != server.StateRunning; st, _ = d.m.Job(batch, blocker[0].ID) {
				if ctx.Err() != nil {
					t.Fatalf("blocker never started: %s", st.State)
				}
				time.Sleep(time.Millisecond)
			}
			spec := server.JobSpec{Label: "watched", Config: fiAnalysis(7301)}
			if tc.name == "deadline" {
				spec.DeadlineMs = time.Now().Add(time.Second).UnixMilli()
			}
			sts, err := d.m.Submit(batch, []server.JobSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			id := sts[0].ID
			if sts[0].State != server.StateQueued {
				t.Fatalf("watched job is %s, want queued", sts[0].State)
			}

			streamErr := make(chan error, 1)
			go func() { streamErr <- c.StreamAnalysis(ctx, id, 0, func(analysis.StreamBatch) {}) }()
			server.WaitAnalysisSubscriber(t, d.m, id)
			tc.end(t, d.m, id)

			err = <-streamErr
			if ctx.Err() != nil {
				t.Fatalf("analysis stream of a flight that never ran did not end: %v", err)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stream ended with %v, want an error naming %q", err, tc.want)
			}
			if st, _ := d.m.Job(batch, id); !st.State.Terminal() {
				t.Fatalf("watched job is %s after its stream ended", st.State)
			}
		})
	}
}
