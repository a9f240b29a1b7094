package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer records named, nested timed regions (spans) and exports them as
// Chrome trace_event JSON — the format chrome://tracing and Perfetto load
// directly. Spans on the same tid nest by time containment, which is how
// the viewers render call trees; concurrent regions (pipeline workers) use
// distinct tids so they draw as parallel rows.
//
// The nil Tracer is the disabled sink: Begin returns the nil Span, whose
// End is a no-op, so instrumented code never branches on enablement.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []TraceEvent
}

// TraceEvent is one Chrome trace_event object. Only "complete" events
// (ph "X") are emitted: begin time TS and duration Dur, both in
// microseconds since the trace epoch.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// NewTracer creates a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Span is one open timed region. The nil Span discards everything.
type Span struct {
	tr    *Tracer
	name  string
	cat   string
	tid   int
	start time.Duration
	args  map[string]string
}

// Begin opens a span on the given tid. Close it with End. tid groups spans
// into one renderer row: sequential nested spans share a tid, concurrent
// workers take distinct tids.
func (t *Tracer) Begin(tid int, name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, cat: cat, tid: tid, start: time.Since(t.epoch)}
}

// SetArg attaches a key/value annotation rendered in the trace viewer's
// detail pane.
func (s *Span) SetArg(key, val string) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = map[string]string{}
	}
	s.args[key] = val
}

// End closes the span and records the event.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Since(s.tr.epoch)
	s.tr.add(TraceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS:  float64(s.start.Microseconds()),
		Dur: float64((end - s.start).Microseconds()),
		PID: 1, TID: s.tid, Args: s.args,
	})
}

// Complete records a span with caller-supplied timestamps — used for spans
// measured on a clock other than the tracer's own (the profiler's virtual
// guest clock).
func (t *Tracer) Complete(tid int, name, cat string, start, dur time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	t.add(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Microseconds()),
		Dur: float64(dur.Microseconds()),
		PID: 1, TID: tid, Args: args,
	})
}

func (t *Tracer) add(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events (tests and exporters).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// traceFile is the JSON object format Perfetto and chrome://tracing load.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON writes the trace in Chrome trace_event JSON object form. A nil
// tracer writes an empty (but valid) trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	f := traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// Timer measures one region on the wall clock and, when a tracer is
// attached, records it as a span. It replaces ad-hoc time.Now()/Since
// plumbing: callers get the duration for their own counters and the
// span lands in the trace for free. The zero Timer is invalid; a Timer
// from StartTimer with a nil tracer still measures.
type Timer struct {
	start time.Time
	span  *Span
}

// StartTimer begins a measured (and, with tr non-nil, traced) region.
func StartTimer(tr *Tracer, tid int, name, cat string) Timer {
	return Timer{start: time.Now(), span: tr.Begin(tid, name, cat)}
}

// Stop ends the region, records the span if any, and returns the elapsed
// wall-clock time.
func (t Timer) Stop() time.Duration {
	t.span.End()
	return time.Since(t.start)
}
