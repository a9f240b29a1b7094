package patch

import (
	"math"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

func analyze(t *testing.T, src string, aopts asm.Options) (*symtab.Symtab, *parse.CFG) {
	t.Helper()
	f, err := asm.Assemble(src, aopts)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, cfg
}

func runFile(t *testing.T, f *elfrv.File, maxInst uint64) *emu.CPU {
	t.Helper()
	c, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Run(maxInst); r != emu.StopExit {
		t.Fatalf("stopped: %v (%v) pc=%#x", r, c.LastTrap(), c.PC)
	}
	return c
}

func readVar(t *testing.T, c *emu.CPU, v *snippet.Var) uint64 {
	t.Helper()
	val, err := c.Mem.Read64(v.Addr)
	if err != nil {
		t.Fatalf("reading %s: %v", v.Name, err)
	}
	return val
}

func TestJumpPatchSelection(t *testing.T) {
	gc := riscv.RV64GC
	noC := riscv.ExtI | riscv.ExtM
	cases := []struct {
		name     string
		from, to uint64
		room     uint64
		arch     riscv.ExtSet
		scratch  riscv.Reg
		trap     bool
		want     PatchKind
		wantErr  bool
	}{
		{"short forward, C", 0x10000, 0x10400, 4, gc, riscv.RegNone, false, PatchCJ, false},
		{"short backward, C", 0x10000, 0x0fc00, 4, gc, riscv.RegNone, false, PatchCJ, false},
		{"short, no C", 0x10000, 0x10400, 4, noC, riscv.RegNone, false, PatchJAL, false},
		{"medium", 0x10000, 0x80000, 4, gc, riscv.RegNone, false, PatchJAL, false},
		{"far with scratch", 0x10000, 0x10000000, 8, gc, riscv.RegT0, false, PatchAuipcJalr, false},
		{"far without scratch", 0x10000, 0x10000000, 8, gc, riscv.RegNone, false, 0, true},
		{"far, room 4, trap ok", 0x10000, 0x10000000, 4, gc, riscv.RegNone, true, PatchTrap, false},
		{"tiny room, close", 0x10000, 0x10200, 2, gc, riscv.RegNone, false, PatchCJ, false},
		{"tiny room, far, trap", 0x10000, 0x90000, 2, gc, riscv.RegNone, true, PatchTrap, false},
		{"tiny room, far, no trap", 0x10000, 0x90000, 2, gc, riscv.RegNone, false, 0, true},
		{"tiny room, no C", 0x10000, 0x10200, 2, noC, riscv.RegNone, true, 0, true},
	}
	for _, c := range cases {
		kind, bytes, err := JumpPatch(c.from, c.to, c.room, c.arch, c.scratch, c.trap)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: got %v, want error", c.name, kind)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if kind != c.want {
			t.Errorf("%s: kind = %v, want %v", c.name, kind, c.want)
		}
		if len(bytes) != kind.Size() {
			t.Errorf("%s: %d bytes for %v", c.name, len(bytes), kind)
		}
		if uint64(len(bytes)) > c.room {
			t.Errorf("%s: patch exceeds room", c.name)
		}
		// Decode the patch and verify it lands on the target.
		if kind == PatchCJ || kind == PatchJAL {
			inst, err := riscv.Decode(bytes, c.from)
			if err != nil {
				t.Errorf("%s: patch does not decode: %v", c.name, err)
				continue
			}
			if tgt, ok := inst.Target(); !ok || tgt != c.to {
				t.Errorf("%s: patch jumps to %#x, want %#x", c.name, tgt, c.to)
			}
		}
		if kind == PatchAuipcJalr {
			auipc, _ := riscv.Decode(bytes, c.from)
			jalr, _ := riscv.Decode(bytes[4:], c.from+4)
			got := uint64(int64(c.from) + auipc.Imm<<12 + jalr.Imm)
			if got != c.to {
				t.Errorf("%s: pair jumps to %#x, want %#x", c.name, got, c.to)
			}
		}
	}
}

// TestFunctionEntryCounting is the paper's experiment 1 in miniature:
// instrument the entry of multiply, run, and check the counter equals the
// call count while the computation stays correct.
func TestFunctionEntryCounting(t *testing.T) {
	const n, reps = 12, 5
	for _, mode := range []codegen.Mode{codegen.ModeDeadRegister, codegen.ModeSpillAlways} {
		src := workload.MatmulSource(n, reps)
		st, cfg := analyze(t, src, asm.Options{})
		fn, ok := cfg.FuncByName("multiply")
		if !ok {
			t.Fatal("multiply not found")
		}
		rw := NewRewriter(st, cfg, mode)
		counter := rw.NewVar("entry_count", 8)
		if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(counter)); err != nil {
			t.Fatal(err)
		}
		out, err := rw.Rewrite()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		c := runFile(t, out, 200_000_000)
		if got := readVar(t, c, counter); got != reps {
			t.Errorf("mode %v: entry count = %d, want %d", mode, got, reps)
		}
		// The instrumented binary must still compute the right product.
		sym, _ := out.Symbol("mat_c")
		want := workload.RefMatmul(n)
		raw, _ := c.Mem.Read64(sym.Value + uint64((n*n-1)*8))
		if float64frombits(raw) != want[n*n-1] {
			t.Errorf("mode %v: instrumented run corrupted the result", mode)
		}
	}
}

func float64frombits(u uint64) float64 {
	return math.Float64frombits(u)
}

// TestBasicBlockCounting is the paper's experiment 2 in miniature: one
// counter incremented at every block of multiply. The expected executed
// block count is computed analytically from the loop structure.
func TestBasicBlockCounting(t *testing.T) {
	const n, reps = 8, 2
	src := workload.MatmulSource(n, reps)
	st, cfg := analyze(t, src, asm.Options{})
	fn, _ := cfg.FuncByName("multiply")
	if fn == nil {
		t.Fatal("multiply not found")
	}
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	counter := rw.NewVar("bb_count", 8)
	points := snippet.BlockEntries(fn)
	if len(points) != 11 {
		t.Fatalf("%d block points, want 11", len(points))
	}
	for _, pt := range points {
		if err := rw.InsertSnippet(pt, snippet.Increment(counter)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, out, 200_000_000)

	// Blocks per call: B1,B2 once; mm_i n+1; B4 n; mm_j n(n+1); B6 n*n;
	// mm_k n*n*(n+1); body n^3; k_done n*n; i_inc n; done 1.
	perCall := uint64(2 + (n + 1) + n + n*(n+1) + n*n + n*n*(n+1) + n*n*n + n*n + n + 1)
	want := perCall * reps
	if got := readVar(t, c, counter); got != want {
		t.Errorf("bb count = %d, want %d", got, want)
	}
}

// TestMatmulTwoMillionBlockExecutions checks the paper's setup claim:
// "During one execution of the multiply function, about 2 million basic
// blocks are executed" at n=100.
func TestMatmulTwoMillionBlockExecutions(t *testing.T) {
	n := 100
	perCall := 2 + (n + 1) + n + n*(n+1) + n*n + n*n*(n+1) + n*n*n + n*n + n + 1
	if perCall < 1_900_000 || perCall > 2_200_000 {
		t.Errorf("analytic block executions per call = %d, want ~2M", perCall)
	}
}

func TestOverheadOrdering(t *testing.T) {
	// Virtual-time ordering: base < entry-instrumented < bb-instrumented,
	// and dead-register bb < spill-always bb (the table's key shape).
	const n, reps = 10, 2
	src := workload.MatmulSource(n, reps)

	base := func() uint64 {
		f, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := runFile(t, f, 0)
		return c.Cycles
	}()

	run := func(mode codegen.Mode, perBlock bool) uint64 {
		st, cfg := analyze(t, src, asm.Options{})
		fn, _ := cfg.FuncByName("multiply")
		rw := NewRewriter(st, cfg, mode)
		counter := rw.NewVar("c", 8)
		if perBlock {
			for _, pt := range snippet.BlockEntries(fn) {
				if err := rw.InsertSnippet(pt, snippet.Increment(counter)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(counter)); err != nil {
				t.Fatal(err)
			}
		}
		out, err := rw.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		return runFile(t, out, 0).Cycles
	}

	entryDead := run(codegen.ModeDeadRegister, false)
	bbDead := run(codegen.ModeDeadRegister, true)
	bbSpill := run(codegen.ModeSpillAlways, true)

	if entryDead <= base {
		t.Errorf("entry instrumentation not slower than base: %d vs %d", entryDead, base)
	}
	if bbDead <= entryDead {
		t.Errorf("bb instrumentation not slower than entry: %d vs %d", bbDead, entryDead)
	}
	if bbSpill <= bbDead {
		t.Errorf("spill-always (%d) not slower than dead-register (%d): the paper's optimization should win", bbSpill, bbDead)
	}
	t.Logf("cycles: base=%d entry=%d bb(dead)=%d bb(spill)=%d", base, entryDead, bbDead, bbSpill)
}

func TestJumpTableFunctionInstrumentation(t *testing.T) {
	// Instrument every block of the jump-table dispatcher: the rewriter
	// must repoint the table slots at the relocated cases.
	st, cfg := analyze(t, workload.JumpTableSource, asm.Options{})
	fn, ok := cfg.FuncByName("dispatch")
	if !ok {
		t.Fatal("dispatch not found")
	}
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	counter := rw.NewVar("blocks", 8)
	for _, pt := range snippet.BlockEntries(fn) {
		if err := rw.InsertSnippet(pt, snippet.Increment(counter)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, out, 1_000_000)
	if c.ExitCode != workload.JumpTableExpected {
		t.Errorf("instrumented dispatch exit = %d, want %d", c.ExitCode, workload.JumpTableExpected)
	}
	if got := readVar(t, c, counter); got == 0 {
		t.Error("block counter never incremented")
	}
}

func TestFunctionExitInstrumentation(t *testing.T) {
	st, cfg := analyze(t, workload.FibSource, asm.Options{})
	fn, _ := cfg.FuncByName("fib")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	entries := rw.NewVar("entries", 8)
	exits := rw.NewVar("exits", 8)
	if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(entries)); err != nil {
		t.Fatal(err)
	}
	for _, pt := range snippet.FuncExits(fn) {
		if err := rw.InsertSnippet(pt, snippet.Increment(exits)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, out, 10_000_000)
	if c.ExitCode != workload.FibExpected {
		t.Errorf("instrumented fib exit = %d, want %d", c.ExitCode, workload.FibExpected)
	}
	e, x := readVar(t, c, entries), readVar(t, c, exits)
	if e == 0 || e != x {
		t.Errorf("entries %d != exits %d (recursive calls must balance)", e, x)
	}
}

func TestTailCallExitInstrumentation(t *testing.T) {
	// f_outer exits via a tail call; exit instrumentation must catch it.
	st, cfg := analyze(t, workload.TailCallSource, asm.Options{})
	fn, _ := cfg.FuncByName("f_outer")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	exits := rw.NewVar("exits", 8)
	pts := snippet.FuncExits(fn)
	if len(pts) != 1 {
		t.Fatalf("%d exit points in f_outer, want 1 (the tail call)", len(pts))
	}
	for _, pt := range pts {
		if err := rw.InsertSnippet(pt, snippet.Increment(exits)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, out, 1_000_000)
	if c.ExitCode != workload.TailCallExpected {
		t.Errorf("exit = %d, want %d", c.ExitCode, workload.TailCallExpected)
	}
	if got := readVar(t, c, exits); got != 1 {
		t.Errorf("tail-call exit count = %d, want 1", got)
	}
}

func TestLoopInstrumentation(t *testing.T) {
	const n, reps = 6, 1
	st, cfg := analyze(t, workload.MatmulSource(n, reps), asm.Options{})
	fn, _ := cfg.FuncByName("multiply")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	iters := rw.NewVar("iters", 8)
	pts := snippet.LoopBegins(fn)
	if len(pts) != 3 {
		t.Fatalf("%d loop points, want 3", len(pts))
	}
	for _, pt := range pts {
		if err := rw.InsertSnippet(pt, snippet.Increment(iters)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, out, 100_000_000)
	// Head executions: i loop n+1, j loop n(n+1), k loop n*n*(n+1).
	want := uint64((n + 1) + n*(n+1) + n*n*(n+1))
	if got := readVar(t, c, iters); got != want {
		t.Errorf("loop-head count = %d, want %d", got, want)
	}
}

func TestEntryPatchKindsRecorded(t *testing.T) {
	st, cfg := analyze(t, workload.MatmulSource(8, 1), asm.Options{})
	fn, _ := cfg.FuncByName("multiply")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	v := rw.NewVar("v", 8)
	if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(v)); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Rewrite(); err != nil {
		t.Fatal(err)
	}
	if len(rw.Patches) != 1 {
		t.Fatalf("%d patch records", len(rw.Patches))
	}
	p := rw.Patches[0]
	// Trampolines are pages away: c.j cannot reach, jal can.
	if p.Kind != PatchJAL {
		t.Errorf("entry patch kind = %v, want jal", p.Kind)
	}
}

func TestRewriteRoundTripsThroughELF(t *testing.T) {
	// The rewritten binary must survive a write/read cycle and still run.
	const n = 6
	st, cfg := analyze(t, workload.MatmulSource(n, 1), asm.Options{})
	fn, _ := cfg.FuncByName("multiply")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	counter := rw.NewVar("c", 8)
	if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(counter)); err != nil {
		t.Fatal(err)
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := out.Write()
	if err != nil {
		t.Fatal(err)
	}
	back, err := elfrv.Read(raw)
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, back, 100_000_000)
	if got := readVar(t, c, counter); got != 1 {
		t.Errorf("counter after ELF round trip = %d", got)
	}
	// The instrumented copy must be findable by symbol.
	if _, ok := back.Symbol("multiply.dyninst"); !ok {
		t.Error("relocated function symbol missing")
	}
}

func TestCompressedFunctionRelocation(t *testing.T) {
	// Instrument a function full of compressed instructions; relocation
	// must preserve semantics (widening only what needs widening).
	src := `
	.text
	.globl _start
_start:
	li a0, 10
	call accumulate
	li a7, 93
	ecall
	.globl accumulate
	.type accumulate, @function
accumulate:
	addi sp, sp, -16
	sd s0, 8(sp)
	li s0, 0
acc_loop:
	add s0, s0, a0
	addi a0, a0, -1
	bnez a0, acc_loop
	mv a0, s0
	ld s0, 8(sp)
	addi sp, sp, 16
	ret
	.size accumulate, .-accumulate
`
	st, cfg := analyze(t, src, asm.Options{})
	fn, _ := cfg.FuncByName("accumulate")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	blocks := rw.NewVar("blocks", 8)
	for _, pt := range snippet.BlockEntries(fn) {
		if err := rw.InsertSnippet(pt, snippet.Increment(blocks)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	c := runFile(t, out, 1_000_000)
	if c.ExitCode != 55 {
		t.Errorf("instrumented accumulate = %d, want 55", c.ExitCode)
	}
	// entry block + 10 loop iterations + exit block
	if got := readVar(t, c, blocks); got != 1+10+1 {
		t.Errorf("block executions = %d, want 12", got)
	}
}

func TestUninstrumentedFunctionsUntouched(t *testing.T) {
	st, cfg := analyze(t, workload.MatmulSource(6, 1), asm.Options{})
	fn, _ := cfg.FuncByName("multiply")
	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	v := rw.NewVar("v", 8)
	if err := rw.InsertSnippet(snippet.FuncEntry(fn), snippet.Increment(v)); err != nil {
		t.Fatal(err)
	}
	out, err := rw.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	// init_matrices' bytes must be identical in old and new .text.
	initFn, _ := cfg.FuncByName("init_matrices")
	lo, hi := initFn.Extent()
	oldText := st.File.Section(".text")
	newText := out.Section(".text")
	for a := lo; a < hi; a++ {
		if oldText.Data[a-oldText.Addr] != newText.Data[a-newText.Addr] {
			t.Fatalf("byte at %#x changed in uninstrumented function", a)
		}
	}
}

// TestInsertCounters checks that InsertCounters rewrites a binary byte for
// byte like a counter per named function incremented at each of its points
// one InsertSnippet at a time, in name order, that interleaved requests on
// one function keep their order, and that an unknown name fails.
func TestInsertCounters(t *testing.T) {
	st, cfg := analyze(t, workload.MatmulSource(8, 2), asm.Options{})
	names := []string{"multiply", "init_matrices"}
	for _, mode := range []string{"entry", "blocks", "exits"} {
		points, err := snippet.PointsNamed(mode)
		if err != nil {
			t.Fatal(err)
		}
		rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
		counters, err := rw.InsertCounters(names, points)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rw.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		gotELF, err := got.Write()
		if err != nil {
			t.Fatal(err)
		}

		// The same requests, with the two functions' points interleaved.
		ref := NewRewriter(st, cfg, codegen.ModeDeadRegister)
		var pts [][]snippet.Point
		var vars []*snippet.Var
		for _, name := range names {
			fn, _ := cfg.FuncByName(name)
			pts = append(pts, points(fn))
			vars = append(vars, ref.NewVar("ctr_"+name, 8))
			if counters[name] != vars[len(vars)-1].Addr {
				t.Errorf("%s: counter of %s at %#x, want %#x", mode, name, counters[name], vars[len(vars)-1].Addr)
			}
		}
		for i := 0; i < max(len(pts[0]), len(pts[1])); i++ {
			for f := range pts {
				if i < len(pts[f]) {
					if err := ref.InsertSnippet(pts[f][i], snippet.Increment(vars[f])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want, err := ref.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		wantELF, err := want.Write()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotELF) != string(wantELF) {
			t.Errorf("%s: InsertCounters output differs from one InsertSnippet per point", mode)
		}
	}

	rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
	if _, err := rw.InsertCounters([]string{"multiply", "nope"}, snippet.BlockEntries); err == nil ||
		err.Error() != `patch: no function "nope"` {
		t.Errorf("unknown function: err = %v", err)
	}
}
