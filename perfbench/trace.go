package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its calls into the program. Parent links a span to
// the one that caused it (0 = a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer started
	EndNs   int64  `json:"end_ns"`
	Attr    string `json:"attr,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and start; pass both to end.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	return t.nextID.Add(1), time.Now()
}

func (t *tracer) end(id, parent int64, name string, start time.Time, attr string) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, StartNs: int64(start.Sub(t.t0)), EndNs: int64(time.Since(t.t0)), Attr: attr}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans and the host record as one JSON file.
func (t *tracer) write(path string, h hostRecord) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  hostRecord `json:"host"`
		Spans []span     `json:"spans"`
	}{h, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

// withSpan carries a span id in ctx so HTTP calls made under it record
// it as their parent.
func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// countingTransport counts and times every HTTP round trip and records
// each as a span under the span carried by the request's context.
type countingTransport struct {
	base  http.RoundTripper
	tr    *tracer
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := c.tr.begin()
	t := time.Now()
	resp, err := c.base.RoundTrip(req)
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t)))
	parent, _ := req.Context().Value(spanKey{}).(int64)
	c.tr.end(id, parent, "http "+req.Method, start, req.URL.Path)
	return resp, err
}

// meanMs is the mean round-trip time in milliseconds.
func (c *countingTransport) meanMs() float64 {
	return ratio(float64(c.ns.Load())/1e6, float64(c.calls.Load()))
}
