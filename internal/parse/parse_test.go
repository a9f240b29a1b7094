package parse

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

func parseSource(t *testing.T, src string, aopts asm.Options, popts Options) *CFG {
	t.Helper()
	f, err := asm.Assemble(src, aopts)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatalf("symtab: %v", err)
	}
	cfg, err := Parse(st, popts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg
}

func TestMatmulElevenBasicBlocks(t *testing.T) {
	// Paper Section 4.1: "there are 11 basic blocks in the multiply
	// function (the same for both the RISC-V and x86 binaries)".
	for _, name := range []string{"compressed", "uncompressed"} {
		opts := asm.Options{}
		if name == "uncompressed" {
			opts.NoCompress = true
		}
		cfg := parseSource(t, workload.MatmulSource(100, 1), opts, Options{})
		fn, ok := cfg.FuncByName("multiply")
		if !ok {
			t.Fatalf("%s: multiply not found", name)
		}
		if len(fn.Blocks) != 11 {
			for _, b := range fn.Blocks {
				t.Logf("  %v purpose=%v", b, b.Purpose)
			}
			t.Errorf("%s: multiply has %d basic blocks, want 11", name, len(fn.Blocks))
		}
	}
}

func TestMatmulLoopNest(t *testing.T) {
	cfg := parseSource(t, workload.MatmulSource(100, 1), asm.Options{}, Options{})
	fn, _ := cfg.FuncByName("multiply")
	if len(fn.Loops()) != 3 {
		t.Fatalf("multiply has %d loops, want 3 (i, j, k)", len(fn.Loops()))
	}
	// Exactly one innermost (k), one middle (j), one outermost (i).
	depth := map[*Loop]int{}
	for _, l := range fn.Loops() {
		d := 0
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		depth[l] = d
	}
	counts := map[int]int{}
	for _, d := range depth {
		counts[d]++
	}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("loop nesting depths = %v, want one each of 0,1,2", counts)
	}
}

func TestMatmulReturns(t *testing.T) {
	cfg := parseSource(t, workload.MatmulSource(10, 1), asm.Options{}, Options{})
	for _, name := range []string{"multiply", "init_matrices"} {
		fn, ok := cfg.FuncByName(name)
		if !ok {
			t.Fatalf("%s not found", name)
		}
		if !fn.Returns {
			t.Errorf("%s: return not detected", name)
		}
	}
}

func TestCallGraph(t *testing.T) {
	cfg := parseSource(t, workload.MatmulSource(10, 2), asm.Options{}, Options{})
	entry, ok := cfg.FuncByName("_start")
	if !ok {
		t.Fatal("_start not found")
	}
	mult, _ := cfg.FuncByName("multiply")
	initm, _ := cfg.FuncByName("init_matrices")
	found := map[uint64]bool{}
	for _, c := range entry.Callees {
		found[c] = true
	}
	if !found[mult.Entry] || !found[initm.Entry] {
		t.Errorf("_start callees = %v, want multiply (%#x) and init_matrices (%#x)",
			entry.Callees, mult.Entry, initm.Entry)
	}
}

func TestJumpTableAnalysis(t *testing.T) {
	cfg := parseSource(t, workload.JumpTableSource, asm.Options{}, Options{})
	fn, ok := cfg.FuncByName("dispatch")
	if !ok {
		t.Fatal("dispatch not found")
	}
	var jt *Block
	for _, b := range fn.Blocks {
		if b.Purpose == PurposeJumpTable {
			jt = b
		}
	}
	if jt == nil {
		for _, b := range fn.Blocks {
			t.Logf("  %v purpose=%v last=%v", b, b.Purpose, b.Last())
		}
		t.Fatal("no jump-table block found in dispatch")
	}
	if len(jt.TableTargets) != 4 {
		t.Fatalf("jump table resolved %d targets, want 4: %#x", len(jt.TableTargets), jt.TableTargets)
	}
	// Every target must be a block start inside dispatch.
	for _, tgt := range jt.TableTargets {
		if _, ok := fn.BlockAt(tgt); !ok {
			t.Errorf("table target %#x is not a block in dispatch", tgt)
		}
	}
	if cfg.Stats.JumpTables != 1 {
		t.Errorf("stats.JumpTables = %d", cfg.Stats.JumpTables)
	}
}

func TestJalrClassificationTailCalls(t *testing.T) {
	cfg := parseSource(t, workload.TailCallSource, asm.Options{}, Options{})
	outer, ok := cfg.FuncByName("f_outer")
	if !ok {
		t.Fatal("f_outer not found")
	}
	middle, _ := cfg.FuncByName("f_middle")
	inner, _ := cfg.FuncByName("f_inner")
	if middle == nil || inner == nil {
		t.Fatal("tail-call targets not discovered as functions")
	}
	// f_outer ends in a near tail call (jal x0).
	wantTail := func(fn *Function, dst uint64) {
		t.Helper()
		for _, b := range fn.Blocks {
			if b.Purpose == PurposeTailCall {
				for _, e := range b.Out {
					if e.Kind == EdgeTailCall && e.Target == dst {
						return
					}
				}
			}
		}
		t.Errorf("%s: no tail-call edge to %#x", fn.Name, dst)
	}
	wantTail(outer, middle.Entry)
	// f_middle ends in a far tail call (auipc+jalr fused by the slice).
	wantTail(middle, inner.Entry)
	if !inner.Returns {
		t.Error("f_inner return not detected")
	}
}

func TestJalrClassificationFarCalls(t *testing.T) {
	cfg := parseSource(t, workload.FarCallSource, asm.Options{}, Options{})
	entry, ok := cfg.FuncByName("_start")
	if !ok {
		t.Fatal("_start not found")
	}
	square, ok := cfg.FuncByName("square")
	if !ok {
		t.Fatal("square not discovered via far calls")
	}
	calls := 0
	for _, b := range entry.Blocks {
		if b.Purpose != PurposeCall {
			continue
		}
		for _, e := range b.Out {
			if e.Kind == EdgeCall && e.Target == square.Entry {
				calls++
			}
		}
	}
	if calls != 2 {
		t.Errorf("found %d fused auipc+jalr calls to square, want 2", calls)
	}
	// Each call block must also have a fallthrough continuation.
	for _, b := range entry.Blocks {
		if b.Purpose == PurposeCall {
			hasFT := false
			for _, e := range b.Out {
				if e.Kind == EdgeCallFT {
					hasFT = true
				}
			}
			if !hasFT {
				t.Errorf("call block %v lacks call-fallthrough edge", b)
			}
		}
	}
}

func TestReturnClassification(t *testing.T) {
	cfg := parseSource(t, workload.FibSource, asm.Options{}, Options{})
	fib, ok := cfg.FuncByName("fib")
	if !ok {
		t.Fatal("fib not found")
	}
	returns := 0
	for _, b := range fib.Blocks {
		if b.Purpose == PurposeReturn {
			returns++
			last := b.Last()
			if last.Mn != riscv.MnJALR || last.Rs1 != riscv.RegRA || last.Rd != riscv.X0 {
				t.Errorf("return block ends with %v", last)
			}
		}
	}
	if returns != 1 {
		t.Errorf("fib has %d return blocks, want 1", returns)
	}
}

func TestAblationSliceResolution(t *testing.T) {
	// Without backward-slice resolution, far tail calls and jump tables
	// degrade to unresolved — quantifying what Section 3.2.3's analysis
	// buys (CFG completeness).
	full := parseSource(t, workload.JumpTableSource, asm.Options{}, Options{NoGapParsing: true})
	degraded := parseSource(t, workload.JumpTableSource, asm.Options{},
		Options{NoSliceResolution: true, NoGapParsing: true})
	if full.Stats.JumpTables == 0 {
		t.Error("full parse found no jump table")
	}
	if degraded.Stats.JumpTables != 0 {
		t.Error("degraded parse still resolved the jump table")
	}
	if degraded.Stats.Unresolved <= full.Stats.Unresolved {
		t.Errorf("unresolved: degraded %d vs full %d; ablation should increase it",
			degraded.Stats.Unresolved, full.Stats.Unresolved)
	}
	if degraded.Stats.Blocks >= full.Stats.Blocks {
		t.Errorf("blocks: degraded %d vs full %d; ablation should shrink the CFG",
			degraded.Stats.Blocks, full.Stats.Blocks)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	src := workload.MatmulSource(50, 1)
	serial := parseSource(t, src, asm.Options{}, Options{Workers: 1})
	parallel := parseSource(t, src, asm.Options{}, Options{Workers: 8})
	if serial.Stats != parallel.Stats {
		t.Errorf("parallel parse diverges:\nserial:   %+v\nparallel: %+v", serial.Stats, parallel.Stats)
	}
	if len(serial.Funcs) != len(parallel.Funcs) {
		t.Fatalf("function counts differ: %d vs %d", len(serial.Funcs), len(parallel.Funcs))
	}
	for i := range serial.Funcs {
		a, b := serial.Funcs[i], parallel.Funcs[i]
		if a.Entry != b.Entry || len(a.Blocks) != len(b.Blocks) {
			t.Errorf("func %d: %#x/%d blocks vs %#x/%d blocks", i, a.Entry, len(a.Blocks), b.Entry, len(b.Blocks))
		}
	}
}

func TestBlockSplitting(t *testing.T) {
	// A backward branch into the middle of already-parsed straight-line
	// code forces a split.
	src := `
	.text
	.globl _start
_start:
	li t0, 3
	addi t1, zero, 0
top:
	addi t1, t1, 1
	addi t0, t0, -1
	bnez t0, top
	li a7, 93
	li a0, 0
	ecall
`
	cfg := parseSource(t, src, asm.Options{NoCompress: true}, Options{})
	fn, ok := cfg.FuncByName("_start")
	if !ok {
		t.Fatal("_start not found")
	}
	// Blocks: [li,addi][top: addi,addi,bnez][li,li,ecall...]
	if len(fn.Blocks) != 3 {
		for _, b := range fn.Blocks {
			t.Logf("  %v", b)
		}
		t.Fatalf("got %d blocks, want 3", len(fn.Blocks))
	}
	// The middle block must have two in-edges (fallthrough + taken).
	mid := fn.Blocks[1]
	if len(mid.In) != 2 {
		t.Errorf("loop head has %d in-edges, want 2", len(mid.In))
	}
}

func TestStrippedBinaryParsesFromEntry(t *testing.T) {
	// Remove symbols: parsing must still discover functions by traversal
	// from the entry point (the paper: Dyninst analyzes opportunistically,
	// working on stripped binaries).
	f, err := asm.Assemble(workload.FarCallSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Symbols = nil
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Parse(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Funcs) < 2 {
		t.Fatalf("stripped parse found %d functions, want >= 2 (entry + far-call target)", len(cfg.Funcs))
	}
	if cfg.Stats.Calls < 2 {
		t.Errorf("stripped parse found %d calls, want >= 2", cfg.Stats.Calls)
	}
}

func TestGapParsing(t *testing.T) {
	// A function referenced only through a data pointer is unreachable by
	// traversal; gap parsing must recover it speculatively.
	src := `
	.text
	.globl _start
_start:
	li a0, 0
	li a7, 93
	ecall
	.balign 8
orphan:
	addi a0, a0, 5
	ret

	.data
fnptr:
	.dword orphan
`
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	// Strip symbols so orphan is invisible to seeding.
	f.Symbols = nil
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Parse(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stats.GapFuncs == 0 {
		t.Errorf("gap parsing recovered no functions; gaps: %+v", cfg.Gaps)
	}
	// Without gap parsing the orphan stays a gap.
	cfg2, err := Parse(st, Options{NoGapParsing: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Stats.GapFuncs != 0 {
		t.Error("NoGapParsing still produced speculative functions")
	}
	if len(cfg2.Funcs) >= len(cfg.Funcs) {
		t.Errorf("gap parsing did not add functions: %d vs %d", len(cfg.Funcs), len(cfg2.Funcs))
	}
}

func TestFuncContaining(t *testing.T) {
	cfg := parseSource(t, workload.MatmulSource(10, 1), asm.Options{}, Options{})
	mult, _ := cfg.FuncByName("multiply")
	mid := mult.Blocks[len(mult.Blocks)/2]
	fn, ok := cfg.FuncContaining(mid.Start + 2)
	if !ok {
		t.Fatalf("FuncContaining(%#x) found nothing", mid.Start+2)
	}
	if fn.Entry != mult.Entry {
		t.Errorf("FuncContaining found %s", fn.Name)
	}
}

func TestEdgeInvariants(t *testing.T) {
	cfg := parseSource(t, workload.MatmulSource(10, 1), asm.Options{}, Options{})
	for _, fn := range cfg.Funcs {
		for _, b := range fn.Blocks {
			for _, e := range b.Out {
				if e.From != b {
					t.Errorf("%s %v: out-edge From mismatch", fn.Name, b)
				}
				if !e.Kind.Interprocedural() && e.To == nil && e.Target != 0 {
					t.Errorf("%s %v: unlinked intra edge to %#x (%v)", fn.Name, b, e.Target, e.Kind)
				}
				if e.To != nil {
					found := false
					for _, ie := range e.To.In {
						if ie == e {
							found = true
						}
					}
					if !found {
						t.Errorf("%s: edge %v->%v missing from To.In", fn.Name, e.From, e.To)
					}
				}
			}
			// Instructions must tile the block exactly.
			addr := b.Start
			for _, in := range b.Insts {
				if in.Addr != addr {
					t.Errorf("%s %v: instruction at %#x, expected %#x", fn.Name, b, in.Addr, addr)
					break
				}
				addr = in.Next()
			}
			if addr != b.End {
				t.Errorf("%s %v: instructions end at %#x", fn.Name, b, addr)
			}
		}
	}
}

func TestTinyFunctionParses(t *testing.T) {
	cfg := parseSource(t, workload.TinyFuncSource, asm.Options{}, Options{})
	tiny, ok := cfg.FuncByName("tiny")
	if !ok {
		t.Fatal("tiny not found")
	}
	if len(tiny.Blocks) != 1 || tiny.Blocks[0].Size() != 2 {
		t.Errorf("tiny parsed as %d blocks, first size %d", len(tiny.Blocks), tiny.Blocks[0].Size())
	}
	if tiny.Blocks[0].Purpose != PurposeReturn {
		t.Errorf("tiny block purpose = %v", tiny.Blocks[0].Purpose)
	}
}
