// Package obs is the unified observability layer: a stdlib-only metrics
// registry (counters, gauges, bounded-bucket histograms) plus a span tracer
// that exports Chrome trace_event JSON viewable in Perfetto.
//
// Every handle is nil-safe: a nil *Registry hands out nil *Counter /
// *Gauge / *Histogram, and every method on a nil receiver is a no-op. That
// is the disabled fast path — components hold pre-resolved handles and call
// them unconditionally; when observability is off the calls cost one
// predictable branch, no atomics, no allocation. Hot loops that cannot
// afford even the branch (the emulator's fused dispatch) gate on a single
// enclosing pointer instead.
//
// All update paths are atomic and race-safe: one Registry and one Tracer
// may be shared by any number of goroutines (the concurrent pipeline's
// workers feed a single pair).
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The nil Counter discards
// updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for the nil Counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level. The nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current level (0 for the nil Gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics, the program's one counter
// store. The zero value is not usable; call NewRegistry. A nil *Registry is
// the disabled sink: it hands out nil metric handles and renders nothing.
// WritePrometheus is its one text rendering; names are dotted namespaces
// (emu.dbi.translations) and render with every '.' as '_'.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns the nil (discarding) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (see NewHistogram). Later calls
// ignore bounds and return the existing histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Len returns the number of registered metrics of every kind. Names that
// render to one exposition family would make WritePrometheus's family count
// fall short of it.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.gauges) + len(r.hists)
}
