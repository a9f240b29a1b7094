package patch

import (
	"runtime"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/parse"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// rewriteBlockCounters runs the static rewriter bytes to bytes, the way the
// rewrite-synth benchmark workload does: read, symtab, parse, a counter at
// every block entry of every function in dead-register mode, rewrite and
// write, with jobs workers for parse and rewrite.
func rewriteBlockCounters(tb testing.TB, elf []byte, jobs int) []byte {
	f, err := elfrv.Read(elf)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := parse.Parse(st, parse.Options{Workers: jobs})
	if err != nil {
		tb.Fatal(err)
	}
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	rw.Jobs = jobs
	for _, fn := range cfg.Funcs {
		v := rw.NewVar("ctr_"+fn.Name, 8)
		for _, pt := range snippet.BlockEntries(fn) {
			if err := rw.InsertSnippet(pt, snippet.Increment(v)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		tb.Fatal(err)
	}
	b, err := out.Write()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// assembleELF assembles src to ELF bytes.
func assembleELF(tb testing.TB, src string) []byte {
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := f.Write()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// raceEnabled is set when the race detector is on. It changes what the
// runtime allocates (sync.Pool drops items at random), so the allocation
// budget does not apply.
var raceEnabled bool

// allocBytes returns the heap bytes fn allocates, taking the smallest of a
// few runs so a concurrent test's allocation cannot push it over a bound.
func allocBytes(fn func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestRewriteAllocBytes is the static rewriter's allocation budget
// (Go 1.24, linux/amd64). A 200-function random program rewritten with
// block counters at 2 jobs allocated 3524–3877 KiB across test runs (each
// the least of three) while parse decoded into a per-function arena,
// found every function's loops and kept liveness and relocation addresses
// in maps, and 2659–2941 KiB after; the bound lies between. Parsing fib,
// which the DBI engine does on attach, took 8744 bytes with the
// per-function arena and must not take more with a slab per worker.
func TestRewriteAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	t.Run("random200", func(t *testing.T) {
		const limit = 3328 << 10
		elf := assembleELF(t, workload.RandomProgram(1, 200))
		n := allocBytes(func() { rewriteBlockCounters(t, elf, 2) })
		t.Logf("rewrite allocated %d KiB", n>>10)
		if n > limit {
			t.Errorf("rewrite allocated %d KiB, want at most %d KiB", n>>10, limit>>10)
		}
	})
	t.Run("fib-parse", func(t *testing.T) {
		const limit = 8744
		f, err := asm.Assemble(workload.FibSource, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := symtab.FromFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n := allocBytes(func() {
			if _, err := parse.Parse(st, parse.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("parse allocated %d bytes", n)
		if n > limit {
			t.Errorf("parse allocated %d bytes, want at most %d", n, limit)
		}
	})
}

// BenchmarkRewriteRandom200 times one rewrite of the allocation budget's
// program.
func BenchmarkRewriteRandom200(b *testing.B) {
	elf := assembleELF(b, workload.RandomProgram(1, 200))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rewriteBlockCounters(b, elf, 2)
	}
}
