package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// stallWriter is a flushable ResponseWriter whose first Write blocks
// until release closes: an SSE consumer that stalls on its first frame
// while the feed keeps publishing.
type stallWriter struct {
	hdr     http.Header
	entered chan struct{} // closed when the first Write starts
	release chan struct{}
	once    sync.Once

	mu  sync.Mutex
	buf bytes.Buffer
}

func newStallWriter() *stallWriter {
	return &stallWriter{hdr: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// frames parses everything written so far.
func (w *stallWriter) frames(t *testing.T) []sseEvent {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
		}
	}
	return out
}

// lagThroughSSE serves f through serveSSE to a consumer that stalls on
// its first frame while publish(i) pushes events 2..n — more than the
// subscriber buffer holds, so the feed must cut the subscriber off. Once
// released, the close-and-resume path has to bring the consumer to
// event n while the feed is still live (a feed that silently dropped
// the overflow leaves it waiting forever). Then seal ends the feed and
// the finished stream's frames are returned. publish(1) happens before
// the consumer subscribes.
func lagThroughSSE[T any](t *testing.T, f *feed[T], frame func(T) (uint64, string, any), n int, publish func(i int), seal func()) []sseEvent {
	t.Helper()
	w := newStallWriter()
	open := func(Tenant, string) (*feed[T], error) { return f, nil }
	served := make(chan struct{})
	publish(1)
	go func() {
		defer close(served)
		serveSSE(open, frame)(w, httptest.NewRequest(http.MethodGet, "/stream", nil))
	}()
	select {
	case <-w.entered:
	case <-time.After(10 * time.Second):
		close(w.release)
		t.Fatal("the consumer never received its first frame")
	}
	for i := 2; i <= n; i++ {
		publish(i)
	}
	close(w.release)

	want := strconv.Itoa(n)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		frames := w.frames(t)
		if len(frames) > 0 && frames[len(frames)-1].id == want {
			break
		}
		if time.Now().After(deadline) {
			seal() // unblock the serving goroutine
			<-served
			t.Fatalf("a lagging subscriber never caught up to event %d; got %d frames", n, len(frames))
		}
	}
	seal()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end after the feed sealed")
	}
	frames := w.frames(t)
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("stream did not end with a done frame: %+v", frames)
	}
	return frames[:len(frames)-1]
}

// TestSSELagResumesWithoutGaps drives both streams past their
// subscriber buffers while the consumer reads nothing. The lagging
// subscriber is cut off and resumes from its cursor: the lifecycle
// stream still delivers every sequence 1..N exactly once and in order,
// and the analysis stream's batches still accumulate to the final
// report.
func TestSSELagResumesWithoutGaps(t *testing.T) {
	t.Run("lifecycle", func(t *testing.T) {
		m := &Manager{jobs: map[string]*job{}}
		j := &job{id: "job-000001", state: StateQueued}
		m.jobs[j.id] = j
		notify := func(state JobState) {
			m.mu.Lock()
			defer m.mu.Unlock()
			j.state = state
			m.notifyLocked(j)
		}
		notify(StateQueued) // the submission snapshot, before any subscriber
		f, err := m.eventFeed(Tenant{}, j.id)
		if err != nil {
			t.Fatal(err)
		}
		const n = 40 // > depth 16
		frames := lagThroughSSE(t, f, statusFrame, n,
			func(i int) {
				if i > 1 {
					notify(StateRunning)
				}
			},
			func() { notify(StateDone) })
		for i, fr := range frames {
			if fr.event != "status" || fr.id != strconv.Itoa(i+1) {
				t.Fatalf("frame %d = %s %s, want status %d (every sequence once, in order)", i, fr.event, fr.id, i+1)
			}
		}
		if len(frames) != n+1 {
			t.Fatalf("got %d status frames, want %d", len(frames), n+1)
		}
		var last JobStatus
		if err := json.Unmarshal([]byte(frames[n].data), &last); err != nil || last.State != StateDone {
			t.Fatalf("final frame = %s (%v), want the done status", frames[n].data, err)
		}
	})

	t.Run("analysis", func(t *testing.T) {
		cfg := tinyCfg(480)
		cfg.RunInstructions = 200_000
		var batches []analysis.StreamBatch
		cfg.Analysis = &analysis.Config{Enabled: true, EpochCycles: 500, MaxEpochs: 1024,
			Stream: func(b analysis.StreamBatch) { batches = append(batches, b) }}
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) <= 64+1 {
			t.Fatalf("simulation streamed %d batches; the test needs more than the 64-deep buffer", len(batches))
		}
		a := newAnalysisStream()
		frames := lagThroughSSE(t, &a.feed, batchFrame, len(batches),
			func(i int) { a.ingest(batches[i-1]) },
			func() { a.finish(res.Analysis, nil) })
		acc := analysis.NewStreamAccumulator()
		var prev uint64
		for _, fr := range frames {
			seq := applyFrame(t, acc, fr)
			if seq <= prev {
				t.Fatalf("frame id %d after %d: not increasing", seq, prev)
			}
			prev = seq
		}
		rep, err := acc.Report()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep)
		want, _ := json.Marshal(res.Analysis)
		if !bytes.Equal(got, want) {
			t.Errorf("batches streamed across the lag do not accumulate to the final report")
		}
	})
}
