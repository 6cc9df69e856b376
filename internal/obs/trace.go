package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind names one phase of a transfer's lifecycle. The set covers the
// paper's hot path end to end: plan construction, the pack/send side, the
// recv/unpack side, and the session layer's link recovery.
type EventKind uint8

// Trace event kinds.
const (
	EvScheduleBuild EventKind = iota + 1 // a communication schedule was computed
	EvPack                               // a pairwise fragment was packed
	EvSend                               // a pairwise message was posted
	EvRecv                               // a pairwise message was received
	EvUnpack                             // a pairwise fragment was unpacked
	EvRedial                             // a session redialed and resumed
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvScheduleBuild:
		return "schedule-build"
	case EvPack:
		return "pack"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvUnpack:
		return "unpack"
	case EvRedial:
		return "redial"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded span. Fields are fixed-width values so recording
// does not allocate; Conn is an optional connection/transfer label (reused
// string constants on the hot path keep this allocation-free too).
type Event struct {
	Kind  EventKind `json:"kind"`
	Start int64     `json:"start_ns"` // unix nanoseconds
	Dur   int64     `json:"dur_ns"`   // span duration in nanoseconds
	Conn  string    `json:"conn,omitempty"`
	Rank  int32     `json:"rank"`
	Peer  int32     `json:"peer"`
	Elems int64     `json:"elems"` // elements (or bytes, per kind) moved
}

// Tracer records Events into a fixed-size ring buffer: the most recent
// capacity events are retained, older ones are overwritten. Recording
// takes one mutex and copies one fixed-size struct — cheap enough to leave
// enabled around a failing transfer, and exactly zero cost when the
// process-default tracer is disabled (the nil check is the entire path).
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever recorded
}

// NewTracer returns a tracer retaining the last capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full. Safe on a
// nil receiver (no-op).
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.total%uint64(cap(t.ring))] = ev
	}
	t.total++
	t.mu.Unlock()
}

// Span records an event of the given kind that started at start and is
// ending now. Safe on a nil receiver.
func (t *Tracer) Span(kind EventKind, conn string, rank, peer int, elems int64, start time.Time) {
	if t == nil {
		return
	}
	t.Record(Event{
		Kind:  kind,
		Start: start.UnixNano(),
		Dur:   int64(time.Since(start)),
		Conn:  conn,
		Rank:  int32(rank),
		Peer:  int32(peer),
		Elems: elems,
	})
}

// Total returns the number of events ever recorded (including overwritten
// ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.total > uint64(cap(t.ring)) {
		head := int(t.total % uint64(cap(t.ring)))
		out = append(out, t.ring[head:]...)
		out = append(out, t.ring[:head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// WriteText renders the retained events, oldest first.
func (t *Tracer) WriteText(w io.Writer) error {
	for _, ev := range t.Events() {
		line := fmt.Sprintf("%s start=%d dur=%s rank=%d peer=%d elems=%d",
			ev.Kind, ev.Start, time.Duration(ev.Dur), ev.Rank, ev.Peer, ev.Elems)
		if ev.Conn != "" {
			line += " conn=" + ev.Conn
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// defaultTracer is the process-wide tracer; nil means tracing is off (the
// default), making every instrumentation site a single atomic load.
var defaultTracer atomic.Pointer[Tracer]

// Trace returns the process-default tracer, or nil when tracing is
// disabled. All Tracer methods are nil-safe, so call sites may use the
// result unconditionally; sites that would pay to *construct* an event
// (e.g. a time.Now call) should skip when it is nil.
func Trace() *Tracer { return defaultTracer.Load() }

// EnableTracing installs (and returns) a process-default tracer retaining
// the last capacity events.
func EnableTracing(capacity int) *Tracer {
	t := NewTracer(capacity)
	defaultTracer.Store(t)
	return t
}

// DisableTracing removes the process-default tracer.
func DisableTracing() { defaultTracer.Store(nil) }
