package server

import (
	"testing"
	"time"
)

// Hooks for the external test package (server_test), which drives the
// daemon through internal/client and so cannot be package server.

// GatedRemote is gatedRemote for external tests.
func GatedRemote(gate <-chan struct{}) Remote { return gatedRemote(gate) }

// WaitAnalysisSubscriber blocks until the analysis feed of job id has a
// live subscriber, or is already sealed.
func WaitAnalysisSubscriber(t *testing.T, m *Manager, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		f, err := m.analysisFeed(Tenant{Gateway: true}, id)
		if err != nil {
			t.Fatalf("analysis feed of %s: %v", id, err)
		}
		f.mu.Lock()
		ready := f.sealed || len(f.subs) > 0
		f.mu.Unlock()
		if ready {
			return
		}
	}
	t.Fatalf("no subscriber reached the analysis feed of %s", id)
}
