package patch

import (
	"bytes"
	"sync"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// TestRewriterLivenessCacheRace pins the data race the parallel planning
// phase introduced in the rewriter's lazily-built liveness cache: before the
// cache was mutex-guarded with double-checked locking, concurrent planFunc
// workers could write rw.liveness for the same function simultaneously.
// The test hammers the rewriter's cache directly from many goroutines (run under
// -race; the CI race job does) and asserts all callers observe one canonical
// result per function.
func TestRewriterLivenessCacheRace(t *testing.T) {
	st, cfg := analyze(t, workload.RandomProgram(11, 24), asm.Options{})
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)

	const goroutines = 16
	results := make([]map[uint64]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[uint64]interface{}{}
			// Interleave orders so goroutines collide on cold entries.
			for round := 0; round < 4; round++ {
				for i := range cfg.Funcs {
					fn := cfg.Funcs[(i+g)%len(cfg.Funcs)]
					seen[fn.Entry] = rw.liveness.For(fn)
				}
			}
			results[g] = seen
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for entry, lv := range results[g] {
			if lv != results[0][entry] {
				t.Errorf("goroutine %d observed a different liveness result for %#x", g, entry)
			}
		}
	}
}

// TestParallelRewriteMatchesSerial exercises the full four-phase pipeline
// (parallel plan, serial layout, parallel encode, serial splice) under the
// race detector and pins the byte-identity of serial and parallel output at
// the Rewriter level — below the pipeline package's batch machinery.
func TestParallelRewriteMatchesSerial(t *testing.T) {
	build := func(jobs int) []byte {
		st, cfg := analyze(t, workload.RandomProgram(12, 18), asm.Options{})
		rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
		rw.Jobs = jobs
		for i, fn := range cfg.Funcs {
			if i%2 == 1 {
				continue
			}
			v := rw.NewVar("c_"+fn.Name, 8)
			if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(v)); err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
		}
		out, err := rw.Rewrite()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		raw, err := out.Write()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if rw.Phases.Plan+rw.Phases.Layout+rw.Phases.Encode+rw.Phases.Splice == 0 {
			t.Errorf("jobs=%d: phase times were not recorded", jobs)
		}
		return raw
	}
	serial := build(1)
	for _, jobs := range []int{2, 4, 16} {
		if got := build(jobs); !bytes.Equal(got, serial) {
			t.Errorf("jobs=%d: output differs from serial (%d vs %d bytes)", jobs, len(got), len(serial))
		}
	}
}
