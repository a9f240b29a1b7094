package main

import (
	"math"
	"sort"
)

// dist summarizes one sample: the statistics results.json records for every
// metric read from a distribution.
type dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Percentile is the tail percentile reported (nearest rank) and Beyond
	// the number of samples above it; both are zero when no tail is taken.
	Percentile int     `json:"percentile,omitempty"`
	Tail       float64 `json:"tail,omitempty"`
	Beyond     int     `json:"beyond,omitempty"`
}

// summarize sorts xs in place and returns its median and quartiles, plus the
// nearest-rank percentile pct when pct > 0.
func summarize(xs []float64, pct int) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	for _, x := range xs {
		d.Mean += x
	}
	d.Mean /= float64(len(xs))
	d.Median = median(xs)
	d.Q1, d.Q3 = quartiles(xs)
	if pct > 0 {
		i := rankIndex(len(xs), pct)
		d.Percentile, d.Tail, d.Beyond = pct, xs[i], len(xs)-1-i
	}
	return d
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles of sorted xs by the method of Python's
// statistics.quantiles(xs, n=4) (its default, "exclusive"), so the spreads
// printed here match the ones a reader recomputes from the raw values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// rankIndex is the index of the nearest-rank pct-th percentile in a sorted
// sample of n: the smallest value with at least pct% of the sample at or
// below it. n-1-rankIndex(n, pct) samples lie beyond it.
func rankIndex(n, pct int) int {
	rank := (pct*n + 99) / 100 // ceil(pct*n/100)
	if rank < 1 {
		rank = 1
	}
	return rank - 1
}

// minTailSamples is how many samples must lie beyond a reported percentile.
const minTailSamples = 10

// tailPct is the tail percentile the benchmark reports. The 99th, with the
// 1,500 or so operations a window of the slower workloads holds, has too
// few samples beyond it: one stall on the shared host moved it by a
// quarter between runs. The 95th has about 75 beyond it there.
const tailPct = 95

// minOps is the smallest sample whose nearest-rank tailPct-th percentile
// has minTailSamples beyond it.
const minOps = 100 * minTailSamples / (100 - tailPct)
