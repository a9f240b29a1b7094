package par

import (
	"sync/atomic"
	"testing"
)

// TestForEach checks that every index runs exactly once, that worker ids
// stay in range, and that no more than the requested number of calls
// overlap.
func TestForEach(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 200} {
			width := max(workers, 1)
			hits := make([]atomic.Int32, n)
			var running, peak atomic.Int32
			ForEach(workers, n, func(w, i int) {
				if w < 0 || w >= width {
					t.Errorf("workers=%d n=%d: worker id %d out of range", workers, n, w)
				}
				r := running.Add(1)
				for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
				}
				hits[i].Add(1)
				running.Add(-1)
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
			if p := int(peak.Load()); p > width {
				t.Errorf("workers=%d n=%d: %d calls overlapped", workers, n, p)
			}
		}
	}
}
