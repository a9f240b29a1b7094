package core

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/patch"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

func open(t *testing.T, src string) *Binary {
	t.Helper()
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b, err := FromFile(f)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return b
}

func TestOpenAndFind(t *testing.T) {
	b := open(t, workload.MatmulSource(8, 1))
	fn, err := b.FindFunction("multiply")
	if err != nil {
		t.Fatal(err)
	}
	if len(fn.Blocks) != 11 {
		t.Errorf("multiply blocks = %d", len(fn.Blocks))
	}
	if _, err := b.FindFunction("nonexistent"); err == nil {
		t.Error("found nonexistent function")
	}
	// Open from serialized bytes too.
	raw, err := b.File.Write()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Functions()) != len(b.Functions()) {
		t.Errorf("function counts differ after round trip")
	}
}

func TestMutatorStaticRewrite(t *testing.T) {
	const n, reps = 8, 3
	b := open(t, workload.MatmulSource(n, reps))
	fn, _ := b.FindFunction("multiply")
	m := b.NewMutator(codegen.ModeDeadRegister)
	entries := m.NewVar("entries", 8)
	exits := m.NewVar("exits", 8)
	blocks := m.NewVar("blocks", 8)
	if err := m.AtFuncEntry(fn, snippet.Increment(entries)); err != nil {
		t.Fatal(err)
	}
	if err := m.AtFuncExits(fn, snippet.Increment(exits)); err != nil {
		t.Fatal(err)
	}
	if err := m.AtBlockEntries(fn, snippet.Increment(blocks)); err != nil {
		t.Fatal(err)
	}
	out, err := m.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(out, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := cpu.Run(0); r != emu.StopExit {
		t.Fatalf("stopped: %v (%v)", r, cpu.LastTrap())
	}
	ev, _ := cpu.Mem.Read64(entries.Addr)
	xv, _ := cpu.Mem.Read64(exits.Addr)
	if ev != reps || xv != reps {
		t.Errorf("entries=%d exits=%d, want %d each", ev, xv, reps)
	}
	bv, _ := cpu.Mem.Read64(blocks.Addr)
	if bv == 0 {
		t.Error("block counter never ran")
	}
}

// TestFigure1Variants exercises the three instrumentation variants of the
// paper's Figure 1 — static rewriting, dynamic create-process, dynamic
// attach — and checks all three count the same function entries.
func TestFigure1Variants(t *testing.T) {
	const n, reps = 8, 4
	src := workload.MatmulSource(n, reps)

	// Variant 1: static binary rewriting.
	staticCount := func() uint64 {
		b := open(t, src)
		fn, _ := b.FindFunction("multiply")
		m := b.NewMutator(codegen.ModeDeadRegister)
		v := m.NewVar("c", 8)
		if err := m.AtFuncEntry(fn, snippet.Increment(v)); err != nil {
			t.Fatal(err)
		}
		out, err := m.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := emu.New(out, emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		if r := cpu.Run(0); r != emu.StopExit {
			t.Fatalf("static: %v", r)
		}
		got, _ := cpu.Mem.Read64(v.Addr)
		return got
	}()

	// Variant 2: dynamic instrumentation of a created process.
	spawnCount := func() uint64 {
		b := open(t, src)
		fn, _ := b.FindFunction("multiply")
		p, err := b.Launch(emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		v := p.NewVar("c", 8)
		kind, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
			snippet.Increment(v), codegen.ModeDeadRegister)
		if err != nil {
			t.Fatal(err)
		}
		if kind == patch.PatchTrap {
			t.Error("spawn variant should not need the trap rung")
		}
		ev, err := p.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != proc.EventExit {
			t.Fatalf("spawn: %+v", ev)
		}
		got, err := p.ReadVar(v)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}()

	// Variant 3: attach to a process that already started running.
	attachCount := func() uint64 {
		b := open(t, src)
		fn, _ := b.FindFunction("multiply")
		cpu, err := emu.New(b.File, emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		cpu.Run(500) // the process is already underway (still in init)
		if cpu.Exited {
			t.Fatal("finished before attach")
		}
		p := b.Attach(cpu)
		v := p.NewVar("c", 8)
		if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
			snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
			t.Fatal(err)
		}
		ev, err := p.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != proc.EventExit {
			t.Fatalf("attach: %+v", ev)
		}
		got, _ := p.ReadVar(v)
		return got
	}()

	if staticCount != reps || spawnCount != reps || attachCount != reps {
		t.Errorf("entry counts static=%d spawn=%d attach=%d, want %d each",
			staticCount, spawnCount, attachCount, reps)
	}
}

// TestTrapRungDynamic forces the paper's worst case: a 2-byte function that
// no jump patch fits, handled by the breakpoint-redirect trap under dynamic
// instrumentation.
func TestTrapRungDynamic(t *testing.T) {
	b := open(t, workload.TinyFuncSource)
	fn, _ := b.FindFunction("tiny")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	v := p.NewVar("tiny_calls", 8)
	kind, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
		snippet.Increment(v), codegen.ModeDeadRegister)
	if err != nil {
		t.Fatal(err)
	}
	if kind != patch.PatchTrap {
		t.Fatalf("patch kind = %v, want trap (function is 2 bytes, trampoline pages away)", kind)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.TinyFuncExpected {
		t.Fatalf("event = %+v", ev)
	}
	got, _ := p.ReadVar(v)
	if got != 1 {
		t.Errorf("tiny entry count = %d, want 1", got)
	}
}

func TestDynamicJumpTableInstrumentation(t *testing.T) {
	b := open(t, workload.JumpTableSource)
	fn, _ := b.FindFunction("dispatch")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	v := p.NewVar("blocks", 8)
	if _, err := p.InstrumentFunction(fn, snippet.BlockEntries(fn),
		snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.JumpTableExpected {
		t.Fatalf("event = %+v", ev)
	}
	got, _ := p.ReadVar(v)
	if got == 0 {
		t.Error("dispatch blocks never counted")
	}
}

func TestProbeCallback(t *testing.T) {
	b := open(t, workload.FibSource)
	fn, _ := b.FindFunction("fib")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	var args []uint64
	if err := p.Probe(fn.Entry, func(pp *Process) {
		args = append(args, pp.GetReg(10)) // a0
	}); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("event = %+v", ev)
	}
	if len(args) != 465 {
		t.Errorf("probe fired %d times, want 465", len(args))
	}
	if len(args) > 0 && args[0] != 12 {
		t.Errorf("first fib arg = %d, want 12", args[0])
	}
}

func TestWalkFromCore(t *testing.T) {
	b := open(t, workload.FramePointerSource)
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	spin, _ := b.FindFunction("spin")
	if _, err := p.InsertBreakpoint(spin.Entry); err != nil {
		t.Fatal(err)
	}
	if ev, err := p.Continue(); err != nil || ev.Kind != proc.EventBreakpoint {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
	frames, err := p.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		var ns []string
		for _, f := range frames {
			ns = append(ns, f.FuncName)
		}
		t.Errorf("frames = %v, want 5 deep", ns)
	}
}

// TestFigure2ComponentGraph asserts the Components() table (the
// reproduction of the paper's Figure 2) matches the real import lists of
// the packages, so the documented architecture cannot drift from the code.
func TestFigure2ComponentGraph(t *testing.T) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Skip("no caller info")
	}
	internalDir := filepath.Dir(filepath.Dir(thisFile)) // .../internal

	actual := map[string][]string{}
	entries, err := os.ReadDir(internalDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		set := map[string]bool{}
		files, _ := filepath.Glob(filepath.Join(internalDir, pkg, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			af, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			for _, imp := range af.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(path, "rvdyn/internal/") {
					set[strings.TrimPrefix(path, "rvdyn/internal/")] = true
				}
			}
		}
		var list []string
		for k := range set {
			list = append(list, k)
		}
		sort.Strings(list)
		actual[pkg] = list
	}

	declared := map[string][]string{}
	for _, c := range Components() {
		declared[c.Name] = c.Uses
	}

	for pkg, uses := range actual {
		want, ok := declared[pkg]
		if !ok {
			t.Errorf("package %s missing from the Figure 2 component table", pkg)
			continue
		}
		if strings.Join(uses, ",") != strings.Join(want, ",") {
			t.Errorf("component %s: declared uses %v, actual imports %v", pkg, want, uses)
		}
	}
	for pkg := range declared {
		if _, ok := actual[pkg]; !ok {
			t.Errorf("component table lists %s but no such package exists", pkg)
		}
	}
}

func TestComponentRolesCoverPaperToolkits(t *testing.T) {
	// Every toolkit from Section 2 must appear in a component role.
	want := []string{"SymtabAPI", "InstructionAPI", "ParseAPI", "DataflowAPI",
		"CodeGenAPI", "PatchAPI", "ProcControlAPI", "StackwalkerAPI"}
	var roles []string
	for _, c := range Components() {
		roles = append(roles, c.Role)
	}
	all := strings.Join(roles, " ")
	for _, w := range want {
		if !strings.Contains(all, w) {
			t.Errorf("component table missing toolkit %s", w)
		}
	}
}

// TestDynamicEdgeInstrumentation counts loop back-edge traversals by
// in-memory patching of a live process.
func TestDynamicEdgeInstrumentation(t *testing.T) {
	b := open(t, workload.MatmulSource(6, 1))
	fn, _ := b.FindFunction("multiply")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	v := p.NewVar("backs", 8)
	edges := snippet.LoopBackEdges(fn)
	if len(edges) != 3 {
		t.Fatalf("%d back edges", len(edges))
	}
	if _, err := p.InstrumentFunctionFull(fn, nil, edges,
		snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
	got, _ := p.ReadVar(v)
	want := uint64(6 + 6*6 + 6*6*6)
	if got != want {
		t.Errorf("back-edge count = %d, want %d", got, want)
	}
}

// TestUninstrument: instrument, run part-way, uninstrument, finish. The
// counter must stop advancing after removal while the program still
// completes correctly.
func TestUninstrument(t *testing.T) {
	b := open(t, workload.FibSource)
	fn, _ := b.FindFunction("fib")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	v := p.NewVar("calls", 8)
	if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
		snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
		t.Fatal(err)
	}
	// Run a slice of the program under instrumentation.
	if ev, err := p.ContinueBudget(2000); err != nil || ev.Kind != proc.EventBudget {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
	mid, _ := p.ReadVar(v)
	if mid == 0 {
		t.Fatal("counter never advanced while instrumented")
	}
	if err := p.Uninstrument(fn); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
	if ev.ExitCode != workload.FibExpected {
		t.Errorf("exit = %d, want %d", ev.ExitCode, workload.FibExpected)
	}
	final, _ := p.ReadVar(v)
	// At most one in-flight frame can be paused between the entry redirect
	// and its counter update; beyond that the counter must be frozen. (A
	// full instrumented run reaches 465.)
	if final > mid+1 {
		t.Errorf("counter advanced after uninstrument: %d -> %d", mid, final)
	}
	// Re-instrumentation is allowed after removal.
	if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
		snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
		t.Errorf("re-instrument after uninstrument: %v", err)
	}
}

// TestWalkThroughInstrumentedFrames: break inside the *relocated* copy of
// fib (its entry redirects there) and walk: patch-area PCs must translate
// back to original addresses so every frame attributes to fib.
func TestWalkThroughInstrumentedFrames(t *testing.T) {
	b := open(t, workload.FibSource)
	fn, _ := b.FindFunction("fib")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	v := p.NewVar("c", 8)
	if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
		snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
		t.Fatal(err)
	}
	// Run until deep in the instrumented recursion.
	if ev, err := p.ContinueBudget(3000); err != nil || ev.Kind != proc.EventBudget {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
	// The PC should currently sit in the patch area (relocated fib).
	pc := p.PC()
	if _, inOrig := b.CFG.FuncContaining(pc); inOrig {
		t.Logf("pc %#x still in original image; translation path untested this run", pc)
	}
	frames, err := p.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("only %d frames", len(frames))
	}
	for i := 0; i < len(frames)-1; i++ {
		if frames[i].FuncName != "fib" {
			t.Errorf("frame %d = %q, want fib", i, frames[i].FuncName)
		}
	}
	if frames[len(frames)-1].FuncName != "_start" {
		t.Errorf("outermost = %q", frames[len(frames)-1].FuncName)
	}
	// Finish correctly.
	ev, err := p.Continue()
	if err != nil || ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
}

// TestMutatorPointHelpers drives the remaining point-family helpers: call
// sites, loop begins, and loop back edges in one static rewrite.
func TestMutatorPointHelpers(t *testing.T) {
	const n = 6
	b := open(t, workload.MatmulSource(n, 2))
	start, _ := b.FindFunction("_start")
	mult, _ := b.FindFunction("multiply")
	m := b.NewMutator(codegen.ModeDeadRegister)
	calls := m.NewVar("calls", 8)
	heads := m.NewVar("heads", 8)
	backs := m.NewVar("backs", 8)
	if err := m.AtCallSites(start, snippet.Increment(calls)); err != nil {
		t.Fatal(err)
	}
	if err := m.AtLoopBegins(mult, snippet.Increment(heads)); err != nil {
		t.Fatal(err)
	}
	if err := m.AtLoopBackEdges(mult, snippet.Increment(backs)); err != nil {
		t.Fatal(err)
	}
	out, err := m.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(out, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := cpu.Run(0); r != emu.StopExit {
		t.Fatalf("stopped: %v (%v)", r, cpu.LastTrap())
	}
	cv, _ := cpu.Mem.Read64(calls.Addr)
	hv, _ := cpu.Mem.Read64(heads.Addr)
	bv, _ := cpu.Mem.Read64(backs.Addr)
	// _start makes 1 init call + 2 multiply calls (the reps loop).
	if cv != 3 {
		t.Errorf("call-site count = %d, want 3", cv)
	}
	// Loop-head executions per call: (n+1) + n(n+1) + n*n*(n+1); back-edge
	// traversals: n + n*n + n*n*n. Two calls double both.
	wantHeads := uint64(2 * ((n + 1) + n*(n+1) + n*n*(n+1)))
	wantBacks := uint64(2 * (n + n*n + n*n*n))
	if hv != wantHeads {
		t.Errorf("loop-head count = %d, want %d", hv, wantHeads)
	}
	if bv != wantBacks {
		t.Errorf("back-edge count = %d, want %d", bv, wantBacks)
	}
}

// TestMergePairs checks the merge of a function's sorted translation pairs
// into the sorted pairs before them, in place.
func TestMergePairs(t *testing.T) {
	pairs := func(addrs ...uint64) []xlatPair {
		var out []xlatPair
		for _, a := range addrs {
			out = append(out, xlatPair{newAddr: a, origAddr: a + 1})
		}
		return out
	}
	cases := []struct {
		s    []xlatPair
		mid  int
		want []xlatPair
	}{
		{pairs(1, 2, 3), 0, pairs(1, 2, 3)},
		{pairs(1, 2, 3), 3, pairs(1, 2, 3)},
		{pairs(1, 2, 5, 6), 2, pairs(1, 2, 5, 6)},
		{pairs(5, 6, 1, 2), 2, pairs(1, 2, 5, 6)},
		{pairs(1, 4, 9, 2, 5, 6), 3, pairs(1, 2, 4, 5, 6, 9)},
	}
	for _, c := range cases {
		mergePairs(c.s, c.mid)
		if !slices.Equal(c.s, c.want) {
			t.Errorf("mergePairs at %d = %v, want %v", c.mid, c.s, c.want)
		}
	}
}
