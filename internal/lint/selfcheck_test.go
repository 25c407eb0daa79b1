package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestSelfCheck runs the full ccsimlint suite over the repository's own
// source and requires it to come back clean. This is the contract the
// Makefile lint target enforces; keeping it as a test means `go test
// ./...` alone catches a regression that introduces nondeterminism, an
// unkeyed config field, I/O under a lock, or an allocating hot path.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check loads and type-checks the whole module")
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	sum, err := lint.Run(root, lint.All(), "./...")
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range sum.Diagnostics {
		t.Errorf("finding on own tree: %s", d.String())
	}
	// The tree carries deliberate, annotated exceptions (the durable
	// snapshot writer's publish mutex, the client's health probe) — the
	// suppression path must be exercised by the real tree, not only by
	// fixtures.
	if len(sum.Suppressed) == 0 {
		t.Error("expected at least one honored //lint:allow suppression in the tree")
	}
}
