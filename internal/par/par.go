// Package par runs independent work items on a bounded pool of goroutines.
// It is the one worker pool the analysis and rewriting layers share: the
// parser's per-round frontier, the rewriter's plan and encode phases, and
// the pipeline's batch fan-out.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach calls f(w, i) once for every i in [0, n) and returns when all
// calls have finished. At most workers calls run at once (workers <= 1 runs
// them in order on the calling goroutine); the caller is one of the workers,
// so a pool of k starts only k-1 goroutines. w in [0, workers) names the
// worker making the call, for callers that keep per-worker state such as a
// trace row. Items are handed out in index order, so f must not depend on
// which worker runs an item.
func ForEach(workers, n int, f func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}
