package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a bounded-bucket histogram of uint64 observations: a fixed
// set of ascending upper bounds plus an overflow bucket, with atomic
// per-bucket counts and atomic sum/count/min/max, so concurrent Observe
// calls never lock. Quantiles are estimated by linear interpolation inside
// the bucket that holds the requested rank, so the estimation error is
// bounded by the bucket's width.
//
// The nil Histogram discards observations and reports an empty summary.
type Histogram struct {
	bounds []uint64 // ascending; bucket i holds v <= bounds[i]
	counts []atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
	min    atomic.Uint64 // valid when count > 0
	max    atomic.Uint64
}

// NewHistogram creates a histogram with the given ascending upper bounds
// (an overflow bucket is always appended). Nil or empty bounds default to
// ExpBuckets(1, 2, 32), which covers the full uint32 range in powers of two.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		bounds = ExpBuckets(1, 2, 32)
	}
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.min.Store(math.MaxUint64)
	return h
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor, ...
func ExpBuckets(start, factor uint64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	if factor < 2 {
		factor = 2
	}
	out := make([]uint64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		next := v * factor
		if next <= v { // overflow: clamp the ladder
			break
		}
		v = next
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; beyond the last bound falls
	// into the overflow bucket.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed values.
// It returns 0 when the histogram is empty and NaN for NaN q. The extremes
// are exact: Quantile(0) is the observed minimum and Quantile(1) the
// observed maximum (out-of-range q clamps to those). In between, the
// estimate interpolates linearly within the covering bucket; the overflow
// bucket interpolates up to the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) {
		// Without this, NaN fails every rank comparison below and would
		// silently report the maximum.
		return math.NaN()
	}
	if q <= 0 {
		return float64(h.min.Load())
	}
	if q >= 1 {
		return float64(h.max.Load())
	}
	// rank is 1-based: the smallest value has rank 1, the largest rank
	// total, so Quantile(0) ~ min and Quantile(1) ~ max.
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := h.bucketRange(i)
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(h.max.Load())
}

// bucketRange returns the value range [lo, hi] bucket i covers, clamped to
// the observed min/max so sparse histograms interpolate tightly.
func (h *Histogram) bucketRange(i int) (lo, hi float64) {
	if i == 0 {
		lo = 0
	} else {
		lo = float64(h.bounds[i-1])
	}
	if i < len(h.bounds) {
		hi = float64(h.bounds[i])
	} else {
		hi = float64(h.max.Load())
	}
	if mn := float64(h.min.Load()); lo < mn {
		lo = mn
	}
	if mx := float64(h.max.Load()); hi > mx {
		hi = mx
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets snapshots the bucket layout: the ascending upper bounds and the
// per-bucket observation counts. counts has one more entry than bounds —
// the trailing overflow bucket. The nil Histogram returns nil slices.
func (h *Histogram) Buckets() (bounds, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]uint64(nil), h.bounds...)
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// HistSummary is a point-in-time histogram digest.
type HistSummary struct {
	Count    uint64
	Sum      uint64
	Min, Max uint64
	P50      float64
	P90      float64
	P99      float64
}

// Summary digests the histogram.
func (h *Histogram) Summary() HistSummary {
	if h == nil || h.count.Load() == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
