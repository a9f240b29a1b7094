package main

import (
	"math/rand"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by a quarter
// or more over seconds, and operation times drift with it. So every timed
// end-to-end metric is normalized by a calibration kernel that runs beside
// the operations and shares no code with the system under test. A time t
// measured while the kernel took c is reported as t * calibRef / c: the
// time the operation would have taken on a host that runs the kernel in
// calibRef. results-NAME.json keeps the raw times as well.
const (
	// calibRef is the kernel's time the normalized metrics are scaled to,
	// about what it takes on the 2.1 GHz Xeon the bounds were set on.
	calibRef = 500 * time.Microsecond
	// calibEvery is how often each client runs the kernel during the
	// window; the kernel costs about 2.5% of the window at this rate.
	calibEvery = 20 * time.Millisecond
	// calibSpan is how far either side of an operation's start the
	// calibration samples that normalize it may lie.
	calibSpan = 300 * time.Millisecond
)

// calibrator runs the calibration kernel for one client and keeps its
// samples. The kernel has two halves that no allocation touches: a walk of
// dependent loads and stores over a 256 KiB table with data-dependent
// branches, and a small bytecode interpreter — switch dispatch over a fixed
// random program — whose timing follows host contention much as the
// emulator's does.
type calibrator struct {
	table   [1 << 15]uint64
	regs    [16]uint64
	code    []uint32
	sink    uint64
	last    time.Time
	samples []calSample
}

// calSample is one kernel run: when it started, relative to the window
// start, and how long it took.
type calSample struct{ at, dur time.Duration }

func newCalibrator() *calibrator {
	c := &calibrator{code: make([]uint32, 2048)}
	rng := rand.New(rand.NewSource(7))
	for i := range c.code {
		c.code[i] = rng.Uint32()
	}
	return c
}

func (c *calibrator) kernel() time.Duration {
	t := time.Now()
	const mask = len(c.table) - 1
	x, acc := uint64(88172645463325252), c.sink
	for i := 0; i < 25_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x) & mask
		acc += c.table[j] ^ x
		c.table[(j*31)&mask] = acc
		if acc&1 == 0 {
			acc >>= 1
		} else {
			acc = 3*acc + 1
		}
	}
	r := &c.regs
	r[0] = acc
	for pc, n := 0, 0; n < 60_000; n++ {
		ins := c.code[pc]
		a, b, d := (ins>>4)&15, (ins>>8)&15, (ins>>12)&15
		imm := uint64(ins >> 16)
		pc = (pc + 1) & (len(c.code) - 1)
		switch ins & 15 {
		case 0:
			r[a] = r[b] + r[d]
		case 1:
			r[a] = r[b] ^ (r[d] << 1)
		case 2:
			r[a] = c.table[int(r[b]+imm)&mask]
		case 3:
			c.table[int(r[b]+imm)&mask] = r[a]
		case 4:
			if r[a] < r[b] {
				pc = int(imm) & (len(c.code) - 1)
			}
		case 5:
			r[a] = r[b] * (r[d] | 1)
		case 6:
			r[a] = r[b] >> d
		case 7:
			r[a] = imm
		case 8:
			r[a] = r[b] - r[d]
		case 9:
			r[a] = r[b] | imm
		case 10:
			r[a] = r[b] & (r[d] + imm)
		case 11:
			if r[a]&1 == 0 {
				pc = int(r[b]) & (len(c.code) - 1)
			}
		case 12:
			r[a] = r[b] << (d & 7)
		case 13:
			r[a] = c.table[int(r[b]^imm)&mask] + r[d]
		case 14:
			r[a]++
		default:
			r[a] = r[b] ^ imm
		}
	}
	c.sink = r[3]
	return time.Since(t)
}

// sample runs the kernel if calibEvery has passed since its last run.
func (c *calibrator) sample(start time.Time) {
	if time.Since(c.last) < calibEvery {
		return
	}
	t := time.Now()
	d := c.kernel()
	c.last = time.Now()
	c.samples = append(c.samples, calSample{t.Sub(start), d})
}

// median runs the kernel n times and returns the median time.
func (c *calibrator) median(n int) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(c.kernel())
	}
	sort.Float64s(ds)
	return time.Duration(median(ds))
}

// hostScale maps a time measured while the kernel took cal to the
// reference host.
func hostScale(cal time.Duration) float64 {
	return float64(calibRef) / float64(cal)
}

// localCal returns, for an operation starting at at, the median of the
// calibration samples (sorted by start) within calibSpan of it, or of all
// samples when none are that close.
func localCal(samples []calSample, at time.Duration) time.Duration {
	lo := sort.Search(len(samples), func(i int) bool { return samples[i].at >= at-calibSpan })
	hi := sort.Search(len(samples), func(i int) bool { return samples[i].at > at+calibSpan })
	if lo == hi {
		return calMedian(samples)
	}
	return calMedian(samples[lo:hi])
}

// calMedian is the median kernel time of samples.
func calMedian(samples []calSample) time.Duration {
	ds := make([]float64, len(samples))
	for i, s := range samples {
		ds[i] = float64(s.dur)
	}
	sort.Float64s(ds)
	return time.Duration(median(ds))
}
