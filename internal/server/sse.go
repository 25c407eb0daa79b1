package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// feed is the one fan-out behind the daemon's job-scoped SSE streams,
// the job lifecycle (/v1/jobs/{id}/events) and the live analysis
// (/v1/analysis/{id}/stream). Events are numbered 1, 2, 3, ... by
// publish; the number is the SSE id a client echoes back as
// Last-Event-ID to resume.
//
// The owner keeps what a late or resuming subscriber needs and hands it
// out through catchUp: the job's status history, or the analysis
// accumulator's snapshot (the final report's deltas once sealed). A
// subscriber gets that catch-up and a live channel atomically, so
// between the two it sees every event once.
//
// One lag rule: publish never blocks. A subscriber whose buffer is full
// is cut off (its channel closed) instead of being handed a gap, and
// resubscribes from its cursor; the catch-up then covers everything it
// missed.
type feed[T any] struct {
	depth int // each subscriber's channel buffer
	// catchUp returns what a subscriber whose cursor is after must
	// receive before live events, given the last published sequence.
	// It runs under mu.
	catchUp func(after, seq uint64) []T

	mu     sync.Mutex
	seq    uint64 // last published sequence
	sealed bool
	err    error               // terminal failure, set by seal
	subs   map[chan T]struct{} // allocated by the first subscribe
}

// publish stamps the next sequence, builds the event with mk and fans
// it out. mk runs under the feed's lock, so the owner records the event
// for catch-up atomically with respect to subscribe. A sealed feed
// ignores publish.
func (f *feed[T]) publish(mk func(seq uint64) T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return
	}
	f.seq++
	ev := mk(f.seq)
	for ch := range f.subs {
		select {
		case ch <- ev:
		default: // lagging: cut off, it resumes from its cursor
			close(ch)
			delete(f.subs, ch)
		}
	}
}

// seal ends the feed: fin (may be nil) swaps the owner to its terminal
// catch-up under the feed's lock, err (may be nil) is the stream's
// terminal failure, and every subscriber's channel closes. Later
// subscribers get the catch-up alone.
func (f *feed[T]) seal(err error, fin func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return
	}
	if fin != nil {
		fin()
	}
	f.sealed, f.err = true, err
	for ch := range f.subs {
		close(ch)
	}
	f.subs = nil
}

// subscribe registers a subscriber whose last received event is after
// (0 for a fresh one). It returns the catch-up to send first and, while
// the feed is live, a channel of later events with a cancel function;
// the channel closes when the feed seals or the subscriber lags. A
// sealed feed returns its catch-up, a nil channel and sealed set.
func (f *feed[T]) subscribe(after uint64) (replay []T, live <-chan T, cancel func(), sealed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	replay = f.catchUp(after, f.seq)
	if f.sealed {
		return replay, nil, func() {}, true
	}
	ch := make(chan T, f.depth)
	if f.subs == nil {
		f.subs = map[chan T]struct{}{}
	}
	f.subs[ch] = struct{}{}
	return replay, ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.subs, ch)
	}, false
}

// jobEvent is one entry of a job's lifecycle feed: a status snapshot
// and its sequence. The submission snapshot is sequence 1 and every
// transition adds one; the job keeps the whole history, so a
// subscriber resuming from any cursor — after a dropped connection or
// after lagging — replays exactly the events it missed: no gaps, no
// duplicates.
type jobEvent struct {
	seq uint64
	st  JobStatus
}

// notifyLocked records j's current status as the next event of its
// history and publishes it to the job's feed, sealing the feed once the
// job is terminal. Callers hold m.mu.
func (m *Manager) notifyLocked(j *job) {
	st := m.statusLocked(j, j.state.Terminal())
	record := func(seq uint64) jobEvent {
		ev := jobEvent{seq: seq, st: st}
		j.events = append(j.events, ev)
		return ev
	}
	if j.feed == nil { // nobody has subscribed: the history is all there is
		record(uint64(len(j.events)) + 1)
		return
	}
	j.feed.publish(record)
	if j.state.Terminal() {
		j.feed.seal(nil, nil)
	}
}

// eventFeed returns the lifecycle feed of a job caller may see,
// allocating it on the first subscription. The history recorded so far
// becomes its catch-up; a terminal job's feed is sealed from the start.
func (m *Manager) eventFeed(caller Tenant, id string) (*feed[jobEvent], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.visibleLocked(caller, id)
	if j == nil {
		return nil, ErrUnknownJob
	}
	if j.feed == nil {
		// A job publishes at most a handful of transitions, so 16 never
		// fills for a reader that keeps up.
		j.feed = &feed[jobEvent]{depth: 16, catchUp: j.eventsAfter, seq: uint64(len(j.events)), sealed: j.state.Terminal()}
	}
	return j.feed, nil
}

// eventsAfter is the lifecycle catch-up: the recorded history after
// cursor after. Once j has a feed the history grows only under the
// feed's lock, where this runs.
func (j *job) eventsAfter(after, _ uint64) []jobEvent {
	if after >= uint64(len(j.events)) {
		return nil
	}
	return slices.Clone(j.events[after:])
}

// statusFrame renders a lifecycle event as a "status" frame.
func statusFrame(ev jobEvent) (uint64, string, any) { return ev.seq, "status", ev.st }

// writeSSE emits one Server-Sent Event frame; seq 0 omits the id line
// (the error and done frames carry none). data must not contain
// newlines (our payloads are single-line JSON).
func writeSSE(w io.Writer, seq uint64, event string, data []byte) error {
	id := ""
	if seq > 0 {
		id = "id: " + strconv.FormatUint(seq, 10) + "\n"
	}
	_, err := fmt.Fprintf(w, "%sevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

// lastEventID parses the SSE resume cursor: the standard Last-Event-ID
// header (browsers set it on reconnect), with a ?last_event_id= query
// fallback for clients that cannot set headers.
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	n, _ := strconv.ParseUint(v, 10, 64)
	return n
}

// serveSSE is the one SSE serving loop, for both job-scoped streams.
// open resolves the request's job to its feed (any error is a 404);
// frame renders an event as its id, frame name and JSON body. The loop
// sends the catch-up, relays live events, and resubscribes from the
// last delivered id whenever the channel closes — the feed sealed, or
// this subscriber lagged. Once a subscription comes back sealed it
// writes the feed's terminal failure as an "error" frame, if there is
// one, and then "done". Last-Event-ID (or ?last_event_id=) resumes
// after the given id.
func serveSSE[T any](open func(caller Tenant, id string) (*feed[T], error), frame func(T) (uint64, string, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f, err := open(caller(r), r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("server: response writer cannot stream"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		last := lastEventID(r)
		send := func(ev T) bool {
			seq, event, v := frame(ev)
			blob, err := json.Marshal(v)
			if err != nil || writeSSE(w, seq, event, blob) != nil {
				return false
			}
			flusher.Flush()
			last = seq
			return true
		}
		// relay sends one subscription's events until its channel closes;
		// false means the client is gone.
		relay := func(replay []T, live <-chan T) bool {
			for _, ev := range replay {
				if !send(ev) {
					return false
				}
			}
			for live != nil {
				select {
				case <-r.Context().Done():
					return false
				case ev, open := <-live:
					if !open {
						return true
					}
					if !send(ev) {
						return false
					}
				}
			}
			return true
		}
		for {
			replay, live, cancel, sealed := f.subscribe(last)
			ok := relay(replay, live)
			cancel()
			if !ok {
				return
			}
			if sealed {
				break
			}
		}
		// seal set err before sealing; the subscribe that saw the seal
		// took the feed's lock after it.
		if f.err != nil {
			blob, _ := json.Marshal(apiError{Error: f.err.Error()})
			_ = writeSSE(w, 0, "error", blob)
		}
		_ = writeSSE(w, 0, "done", []byte("{}"))
		flusher.Flush()
	}
}
