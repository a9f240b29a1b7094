package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines; totals must be exact and the run must be clean under -race.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Load(); got != workers*per {
		t.Fatalf("gauge = %d, want %d", got, workers*per)
	}
}

// TestHistogramConcurrent checks that concurrent observations lose nothing:
// count, sum, min, and max must all be exact (only quantiles are estimates).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 20))
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < per; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				h.Observe(x % 100000)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Min > s.Max || float64(s.Sum) < float64(s.Count)*float64(s.Min) {
		t.Fatalf("inconsistent summary: %+v", s)
	}
}

// TestHistogramQuantile validates the bucket-interpolated quantiles against
// a sorted reference of the same observations: every estimate must land
// within the width of the bucket covering the true value.
func TestHistogramQuantile(t *testing.T) {
	bounds := ExpBuckets(1, 2, 24)
	h := NewHistogram(bounds)
	var vals []uint64
	x := uint64(42)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := x % 1000000
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
		rank := int(q*float64(len(vals))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := float64(vals[rank])
		got := h.Quantile(q)
		// Error bound: the width of the bucket holding the true value.
		i := sort.Search(len(bounds), func(i int) bool { return float64(bounds[i]) >= truth })
		lo := 0.0
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		hi := truth
		if i < len(bounds) {
			hi = float64(bounds[i])
		}
		width := hi - lo
		if math.Abs(got-truth) > width+1 {
			t.Errorf("q=%.2f: got %.1f, true %.1f, bucket width %.1f", q, got, truth, width)
		}
	}

	// Degenerate distribution: every estimate collapses to the single value.
	one := NewHistogram(bounds)
	for i := 0; i < 100; i++ {
		one.Observe(777)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 777 {
			t.Errorf("constant dist q=%.1f: got %.1f, want 777", q, got)
		}
	}
}

// TestNilSink pins the disabled fast path: every operation on nil handles
// must be a silent no-op.
func TestNilSink(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil)
	c.Add(3)
	c.Inc()
	g.Set(9)
	g.Add(1)
	h.Observe(5)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must discard updates")
	}
	var dump strings.Builder
	if err := r.WritePrometheus(&dump); err != nil || dump.Len() != 0 {
		t.Fatalf("nil registry exposition = %q (err %v), want empty", dump.String(), err)
	}
	var tr *Tracer
	sp := tr.Begin(1, "a", "b")
	sp.SetArg("k", "v")
	sp.End()
	tr.Complete(1, "x", "", 0, 0, nil)
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents":[]`) {
		t.Fatalf("nil tracer JSON = %q", sb.String())
	}
}

// TestRegistryDumpSorted pins the deterministic exposition order: families
// sorted by rendered name whatever the kind or registration order.
func TestRegistryDumpSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Histogram("h.mid", []uint64{1}).Observe(1)
	r.Counter("a.first").Add(2)
	r.Gauge("m.middle").Set(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	prev := -1
	for _, name := range []string{"a_first", "h_mid", "m_middle", "z_last"} {
		i := strings.Index(s, "# TYPE "+name+" ")
		if i <= prev {
			t.Fatalf("exposition not sorted at %s:\n%s", name, s)
		}
		prev = i
	}
}

// TestExpBucketsOverflow makes sure the bucket ladder clamps instead of
// wrapping when the bounds exceed uint64.
func TestExpBucketsOverflow(t *testing.T) {
	b := ExpBuckets(1, 2, 200)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
	if len(b) >= 200 {
		t.Fatalf("ladder should clamp before 200 powers of two, got %d", len(b))
	}
}
