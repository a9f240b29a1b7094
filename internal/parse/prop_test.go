// Property-based CFG invariant tests (external test package so it can use
// internal/oracle's program generator without an import cycle). Every
// workload program and a large population of generated programs is parsed
// and checked against the structural invariants the instrumentation layers
// rely on: blocks partition the function's bytes into contiguous decoded
// instruction runs, every resolved edge lands on a block head, and every
// instrumentation point falls on an instruction boundary inside its block —
// i.e. no block spans a patched site.
package parse_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/oracle"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// checkCFGInvariants asserts every structural invariant on one parsed CFG.
func checkCFGInvariants(t *testing.T, cfg *parse.CFG) {
	t.Helper()
	for _, fn := range cfg.Funcs {
		checkFunctionInvariants(t, fn)
	}
	var funcs, blocks, insts int
	for _, fn := range cfg.Funcs {
		funcs++
		blocks += len(fn.Blocks)
		for _, b := range fn.Blocks {
			insts += len(b.Insts)
		}
	}
	if cfg.Stats.Functions != funcs || cfg.Stats.Blocks != blocks || cfg.Stats.Instructions != insts {
		t.Errorf("stats disagree with graph: stats {%d fn %d blk %d inst}, graph {%d %d %d}",
			cfg.Stats.Functions, cfg.Stats.Blocks, cfg.Stats.Instructions, funcs, blocks, insts)
	}
}

func checkFunctionInvariants(t *testing.T, fn *parse.Function) {
	t.Helper()

	// Invariant 1: the entry block exists and starts at the entry address.
	entry := fn.EntryBlock()
	if entry == nil {
		t.Errorf("%s: no block at entry %#x", fn.Name, fn.Entry)
		return
	}
	if entry.Start != fn.Entry {
		t.Errorf("%s: entry block starts at %#x, want %#x", fn.Name, entry.Start, fn.Entry)
	}

	// Invariant 2: blocks are sorted, non-empty, and non-overlapping — they
	// partition the function's bytes (gaps between blocks are legal: padding
	// and alignment bytes belong to no block).
	for i, b := range fn.Blocks {
		if b.Start >= b.End {
			t.Errorf("%s: empty or inverted block [%#x,%#x)", fn.Name, b.Start, b.End)
		}
		if len(b.Insts) == 0 {
			t.Errorf("%s: block %#x has no instructions", fn.Name, b.Start)
			continue
		}
		if i > 0 && fn.Blocks[i-1].End > b.Start {
			t.Errorf("%s: blocks overlap: [%#x,%#x) then [%#x,%#x)", fn.Name,
				fn.Blocks[i-1].Start, fn.Blocks[i-1].End, b.Start, b.End)
		}
		if b.Func != fn {
			t.Errorf("%s: block %#x back-pointer names %v", fn.Name, b.Start, b.Func)
		}

		// Invariant 3: the instruction run is contiguous: the first
		// instruction sits at Start, each next address is the previous
		// instruction's end, and the last instruction ends exactly at End.
		// Together with invariant 2 this is the bytes-partition property.
		at := b.Start
		for _, in := range b.Insts {
			if in.Addr != at {
				t.Errorf("%s: block %#x: instruction at %#x, expected %#x (hole or overlap)",
					fn.Name, b.Start, in.Addr, at)
				break
			}
			at = in.Next()
		}
		if at != b.End {
			t.Errorf("%s: block [%#x,%#x): instructions end at %#x", fn.Name, b.Start, b.End, at)
		}

		// Invariant 4: every resolved intraprocedural edge target is a block
		// head of this function, and In/Out edge lists agree.
		for _, e := range b.Out {
			if e.From != b {
				t.Errorf("%s: out-edge of %#x has From %v", fn.Name, b.Start, e.From)
			}
			if e.To == nil {
				continue
			}
			if e.Kind.Interprocedural() {
				continue // callee blocks live in another function
			}
			got, ok := fn.BlockAt(e.To.Start)
			if !ok || got != e.To {
				t.Errorf("%s: edge %#x->%#x (%v) targets a non-block-head",
					fn.Name, b.Start, e.To.Start, e.Kind)
			}
			found := false
			for _, in := range e.To.In {
				if in == e {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: edge %#x->%#x missing from target's In list", fn.Name, b.Start, e.To.Start)
			}
		}
	}

	// Invariant 5: no block spans a patched site — every instrumentation
	// point the snippet layer can mint falls on an instruction boundary
	// inside the block the point names, and block-entry points coincide with
	// block heads (so patching a point never splits an instruction or
	// crosses a block).
	pts := []snippet.Point{snippet.FuncEntry(fn)}
	pts = append(pts, snippet.FuncExits(fn)...)
	pts = append(pts, snippet.BlockEntries(fn)...)
	pts = append(pts, snippet.CallSites(fn)...)
	for _, pt := range pts {
		if pt.Block == nil {
			t.Errorf("%s: point %v has no block", fn.Name, pt)
			continue
		}
		if !pt.Block.Contains(pt.Addr) {
			t.Errorf("%s: point %v outside its block [%#x,%#x)", fn.Name, pt,
				pt.Block.Start, pt.Block.End)
			continue
		}
		onBoundary := false
		for _, in := range pt.Block.Insts {
			if in.Addr == pt.Addr {
				onBoundary = true
				break
			}
		}
		if !onBoundary {
			t.Errorf("%s: point %v does not fall on an instruction boundary", fn.Name, pt)
		}
		if (pt.Kind == snippet.PointBlockEntry || pt.Kind == snippet.PointFuncEntry) &&
			pt.Addr != pt.Block.Start {
			t.Errorf("%s: %v point at %#x is not its block head %#x", fn.Name,
				pt.Kind, pt.Addr, pt.Block.Start)
		}
	}
}

func parseSource(t *testing.T, src string, workers int) *parse.CFG {
	t.Helper()
	// RVA23Subset covers both plain RV64GC sources and the oracle
	// generator's bitmanip instructions.
	file, err := asm.Assemble(src, asm.Options{Arch: riscv.RVA23Subset})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	st, err := symtab.FromFile(file)
	if err != nil {
		t.Fatalf("symtab: %v", err)
	}
	cfg, err := parse.Parse(st, parse.Options{Workers: workers})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg
}

func TestCFGInvariantsWorkloads(t *testing.T) {
	for _, p := range workload.Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				checkCFGInvariants(t, parseSource(t, p.Source, workers))
			}
		})
	}
}

// TestCFGInvariantsGenerated parses 1000 oracle-generated programs (the same
// generator the differential-execution oracle fuzzes the emulator with) and
// checks every invariant, alternating serial and parallel parsing so the
// population covers both scheduler paths.
func TestCFGInvariantsGenerated(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		src := oracle.GenerateProgram(int64(seed), 120)
		cfg := parseSource(t, src, 1+7*(seed%2))
		checkCFGInvariants(t, cfg)
		if t.Failed() {
			t.Fatalf("invariant violation at generator seed %d", seed)
		}
	}
}

// TestCFGInvariantsRandomMultiFunction runs the invariants over the random
// call-graph generator used by the pipeline benchmarks, which produces far
// more cross-function edges than the oracle's single-body programs.
func TestCFGInvariantsRandomMultiFunction(t *testing.T) {
	programs := 40
	if testing.Short() {
		programs = 6
	}
	for seed := 0; seed < programs; seed++ {
		nFuncs := 10 + seed%40
		src := workload.RandomProgram(int64(seed), nFuncs)
		cfg := parseSource(t, src, 1+7*(seed%2))
		checkCFGInvariants(t, cfg)
		if t.Failed() {
			t.Fatalf("invariant violation at random-program seed %d (%d funcs)", seed, nFuncs)
		}
	}
}

// TestParseDeterministicAcrossWorkers pins the scheduler-independence of the
// parser itself: the CFG (functions, blocks, edges, verdicts) must be
// structurally identical at every worker count.
func TestParseDeterministicAcrossWorkers(t *testing.T) {
	srcs := map[string]string{"matmul": workload.Programs()[0].Source,
		"random": workload.RandomProgram(3, 30)}
	for name, src := range srcs {
		base := cfgFingerprint(parseSource(t, src, 1))
		for _, workers := range []int{2, 4, 8} {
			got := cfgFingerprint(parseSource(t, src, workers))
			if got != base {
				t.Errorf("%s: CFG fingerprint differs at workers=%d:\n%s\nvs serial:\n%s",
					name, workers, got, base)
			}
		}
	}
}

func cfgFingerprint(cfg *parse.CFG) string {
	out := ""
	for _, fn := range cfg.Funcs {
		out += fmt.Sprintf("fn %s@%#x ret=%v\n", fn.Name, fn.Entry, fn.Returns)
		for _, b := range fn.Blocks {
			out += fmt.Sprintf("  blk [%#x,%#x) %v n=%d\n", b.Start, b.End, b.Purpose, len(b.Insts))
			for _, e := range b.Out {
				to := uint64(0)
				if e.To != nil {
					to = e.To.Start
				}
				out += fmt.Sprintf("    -> %#x/%#x %v\n", to, e.Target, e.Kind)
			}
		}
	}
	return out
}

// TestBlockInstsAppendIsolated checks that every block's Insts ends at its
// capacity: the blocks of every function one parse worker decodes share
// that worker's instruction slab, and appending to one block must copy
// rather than overwrite the instructions of the block that follows it
// there, in its own function or another.
func TestBlockInstsAppendIsolated(t *testing.T) {
	srcs := map[string]string{"random-200": workload.RandomProgram(1, 200)}
	for _, p := range workload.Programs() {
		srcs[p.Name] = p.Source
	}
	for name, src := range srcs {
		for _, workers := range []int{1, 2} {
			cfg := parseSource(t, src, workers)
			before := map[*parse.Block][]riscv.Inst{}
			for _, fn := range cfg.Funcs {
				for _, b := range fn.Blocks {
					before[b] = slices.Clone(b.Insts)
				}
			}
			for _, fn := range cfg.Funcs {
				for _, b := range fn.Blocks {
					_ = append(b.Insts, riscv.Inst{Mn: riscv.MnEBREAK})
				}
			}
			for _, fn := range cfg.Funcs {
				for _, b := range fn.Blocks {
					if !slices.Equal(b.Insts, before[b]) {
						t.Errorf("%s, %d workers: %s %v: instructions changed by an append to another block",
							name, workers, fn.Name, b)
					}
				}
			}
		}
	}
}

// TestLoopsConcurrent has many goroutines ask one shared CFG for its loops
// at once, directly and through the loop point constructors, the way
// rvdynd's requests share a cached parse. Under -race it checks that the
// on-demand loop analysis is race-free; every goroutine must see the same
// loops and points as a serial reference computed on a separate parse.
func TestLoopsConcurrent(t *testing.T) {
	// look renders every loop and loop point of cfg, and returns the loops
	// themselves so callers can check they are shared, not recomputed.
	look := func(cfg *parse.CFG) (string, []*parse.Loop) {
		var b strings.Builder
		var all []*parse.Loop
		for _, fn := range cfg.Funcs {
			for _, l := range fn.Loops() {
				fmt.Fprintf(&b, "%s loop %v body", fn.Name, l.Head)
				for _, x := range l.Blocks {
					fmt.Fprintf(&b, " %#x", x.Start)
				}
				for _, e := range l.BackEdges {
					fmt.Fprintf(&b, " back %#x", e.From.Start)
				}
				b.WriteString("\n")
				all = append(all, l)
			}
			for _, pt := range snippet.LoopBegins(fn) {
				fmt.Fprintf(&b, "begin %#x %v\n", pt.Addr, pt.Block)
			}
			for _, ep := range snippet.LoopBackEdges(fn) {
				fmt.Fprintf(&b, "%v\n", ep)
			}
		}
		return b.String(), all
	}
	loops := 0
	for _, p := range workload.Programs() {
		want, serial := look(parseSource(t, p.Source, 1))
		loops += len(serial)
		shared := parseSource(t, p.Source, 2)
		const goroutines = 16
		got := make([]string, goroutines)
		gotLoops := make([][]*parse.Loop, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g], gotLoops[g] = look(shared)
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != want {
				t.Errorf("%s: goroutine %d saw loops\n%s\nwant (serial parse)\n%s", p.Name, g, got[g], want)
			}
			if !slices.Equal(gotLoops[g], gotLoops[0]) {
				t.Errorf("%s: goroutine %d got different loop objects", p.Name, g)
			}
		}
	}
	if loops == 0 {
		t.Fatal("no workload program has a loop")
	}
}
