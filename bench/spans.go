package main

import (
	"io"
	"strconv"
	"sync"
	"time"

	"rvdyn/internal/obs"
)

// spanLog keeps the spans of a traced run in memory and writes them out
// once the run ends. Spans are recorded by the benchmark around its calls
// into each layer, never inside the program, at nanosecond resolution; the
// Chrome trace export goes through obs.Tracer.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed layer call. parent names the enclosing span of the same
// operation ("" for a span directly under the operation); the operation
// itself is the span named "op".
type span struct {
	op     int64
	tid    int
	name   string
	parent string
	start  time.Duration // since the log's epoch
	dur    time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record adds the span [start, end) of operation op.
func (l *spanLog) record(op int64, tid int, name, parent string, start, end time.Time) {
	s := span{op: op, tid: tid, name: name, parent: parent, start: start.Sub(l.epoch), dur: end.Sub(start)}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// attribution splits the wall time of the traced operations between the
// layers: a layer's self time is the duration of its spans minus the
// duration of their child spans, and whatever no top-level span covers is
// unattributed.
type attribution struct {
	wall         time.Duration // summed over traced operations
	self         map[string]time.Duration
	unattributed time.Duration
}

func (l *spanLog) attribute() attribution {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := attribution{self: map[string]time.Duration{}}
	for _, s := range l.spans {
		if s.name == "op" {
			a.wall += s.dur
			a.unattributed += s.dur
			continue
		}
		a.self[s.name] += s.dur
		if s.parent == "" {
			a.unattributed -= s.dur
		} else {
			a.self[s.parent] -= s.dur
		}
	}
	return a
}

// pct is d as a percentage of the traced wall time.
func (a attribution) pct(d time.Duration) float64 {
	if a.wall <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(a.wall)
}

// writeChrome writes the spans as Chrome trace_event JSON (Perfetto,
// chrome://tracing). Every span carries its operation's ID.
func (l *spanLog) writeChrome(w io.Writer) error {
	tr := obs.NewTracer()
	l.mu.Lock()
	for _, s := range l.spans {
		tr.Complete(s.tid, s.name, "bench", s.start, s.dur,
			map[string]string{"op": strconv.FormatInt(s.op, 10)})
	}
	l.mu.Unlock()
	return tr.WriteJSON(w)
}

// opRec times one operation. The operation calls begin and done around the
// system calls it makes, so input preparation and output checks stay out of
// its time; when it is traced it also records a span per layer call.
type opRec struct {
	log    *spanLog // nil: untraced
	id     int64
	tid    int
	t0, t1 time.Time
	// class optionally labels the operation (serve-mix: the cache outcome).
	class string
}

func (o *opRec) traced() bool { return o != nil && o.log != nil }

func (o *opRec) begin() {
	if o != nil {
		o.t0 = time.Now()
	}
}

func (o *opRec) done() {
	if o != nil {
		o.t1 = time.Now()
	}
}

// spanMark is an open span; the zero value (untraced) records nothing.
type spanMark struct {
	o     *opRec
	name  string
	start time.Time
}

// span opens a top-level layer span of o.
func (o *opRec) span(name string) spanMark {
	if !o.traced() {
		return spanMark{}
	}
	return spanMark{o: o, name: name, start: time.Now()}
}

func (s spanMark) end() {
	if s.o == nil {
		return
	}
	s.o.log.record(s.o.id, s.o.tid, s.name, "", s.start, time.Now())
}

// phase is a child of a span that the layer itself timed: a name and a
// duration, with no recorded start.
type phase struct {
	name string
	dur  time.Duration
}

// endWithPhases closes the span and records phases as its children. The
// phases ran in the order given and the last one ended with the call, so
// they are placed back to back against the span's end.
func (s spanMark) endWithPhases(phases ...phase) {
	if s.o == nil {
		return
	}
	end := time.Now()
	s.o.log.record(s.o.id, s.o.tid, s.name, "", s.start, end)
	at := end
	for i := len(phases) - 1; i >= 0; i-- {
		p := phases[i]
		at = at.Add(-p.dur)
		s.o.log.record(s.o.id, s.o.tid, p.name, s.name, at, at.Add(p.dur))
	}
}
