package proc

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/riscv"
	"rvdyn/internal/workload"
)

func build(t *testing.T, src string) *elfrv.File {
	t.Helper()
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return f
}

func TestLaunchRunToExit(t *testing.T) {
	f := build(t, workload.FibSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventExit || ev.ExitCode != workload.FibExpected {
		t.Errorf("event = %+v", ev)
	}
	if !p.Exited() {
		t.Error("Exited() false after exit event")
	}
}

func TestBreakpointHitAndResume(t *testing.T) {
	f := build(t, workload.FibSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	fib, _ := f.Symbol("fib")
	bp, err := p.InsertBreakpoint(fib.Value)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventBreakpoint || ev.Addr != fib.Value {
		t.Fatalf("first stop = %+v", ev)
	}
	if p.PC() != fib.Value {
		t.Fatalf("pc = %#x, want %#x", p.PC(), fib.Value)
	}
	if p.GetReg(riscv.RegA0) != 12 {
		t.Errorf("a0 at first fib entry = %d, want 12", p.GetReg(riscv.RegA0))
	}
	// Resume until exit, counting hits via repeated Continue.
	hits := uint64(1)
	for {
		ev, err = p.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventExit {
			break
		}
		if ev.Kind != EventBreakpoint {
			t.Fatalf("unexpected event %+v", ev)
		}
		hits++
	}
	// fib(12) makes 465 calls total.
	if hits != 465 {
		t.Errorf("breakpoint hits = %d, want 465", hits)
	}
	if bp.HitCount != 0 {
		// HitCount counts callback-path hits; manual Continue loops see the
		// stops directly.
		t.Logf("HitCount = %d (callback-path only)", bp.HitCount)
	}
	if ev.ExitCode != workload.FibExpected {
		t.Errorf("exit = %d", ev.ExitCode)
	}
}

func TestBreakpointCallbackAutoResume(t *testing.T) {
	f := build(t, workload.FibSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	fib, _ := f.Symbol("fib")
	bp, err := p.InsertBreakpoint(fib.Value)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	bp.Callback = func(*Process, *Breakpoint) bool {
		calls++
		return true
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("event = %+v", ev)
	}
	if calls != 465 {
		t.Errorf("callback ran %d times, want 465", calls)
	}
	if bp.HitCount != 465 {
		t.Errorf("HitCount = %d", bp.HitCount)
	}
}

func TestSoftwareSingleStep(t *testing.T) {
	// Step one instruction at a time through a branchy function and verify
	// the PC trail matches a straight emulator trace.
	src := `
	.text
	.globl _start
_start:
	li t0, 3
	li t1, 0
ssloop:
	add t1, t1, t0
	addi t0, t0, -1
	bnez t0, ssloop
	mv a0, t1
	li a7, 93
	ecall
`
	f := build(t, src)

	// Reference trace from the raw emulator.
	ref, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	ref.Trace = func(c *emu.CPU, _ riscv.Inst) { want = append(want, c.PC) }
	ref.Run(0)

	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for !p.Exited() {
		got = append(got, p.PC())
		ev, err := p.StepInst()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventExit {
			break
		}
		if ev.Kind == EventTrap {
			t.Fatalf("trap during step: %v", ev.Err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stepped %d instructions, trace has %d\ngot:  %#x\nwant: %#x", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: pc %#x, want %#x", i, got[i], want[i])
		}
	}
	if p.ExitCode() != 6 {
		t.Errorf("exit = %d, want 6", p.ExitCode())
	}
	if p.Steps == 0 {
		t.Error("software single-step counter never advanced")
	}
}

func TestStepOverBreakpointPreservesSemantics(t *testing.T) {
	// A breakpoint inside a hot loop must not change the result even though
	// every iteration crosses it.
	f := build(t, workload.FibSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	fib, _ := f.Symbol("fib")
	bp, err := p.InsertBreakpoint(fib.Value)
	if err != nil {
		t.Fatal(err)
	}
	bp.Callback = func(*Process, *Breakpoint) bool { return true }
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.ExitCode != workload.FibExpected {
		t.Errorf("exit with breakpoints = %d, want %d", ev.ExitCode, workload.FibExpected)
	}
}

func TestReadWriteMemAndRegs(t *testing.T) {
	f := build(t, workload.FibSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	// Registers.
	p.SetReg(riscv.RegT3, 0xabcdef)
	if got := p.GetReg(riscv.RegT3); got != 0xabcdef {
		t.Errorf("t3 = %#x", got)
	}
	p.SetReg(riscv.X0, 99)
	if p.GetReg(riscv.X0) != 0 {
		t.Error("x0 written")
	}
	// Memory.
	sp := p.GetReg(riscv.RegSP)
	if err := p.WriteMem(sp-8, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	b, err := p.ReadMem(sp-8, 8)
	if err != nil || b[0] != 1 || b[7] != 8 {
		t.Errorf("mem round trip: %v %v", b, err)
	}
	if _, err := p.ReadMem(0xdead00000000, 8); err == nil {
		t.Error("read of unmapped memory succeeded")
	}
}

func TestRemoveBreakpoint(t *testing.T) {
	f := build(t, workload.FibSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	fib, _ := f.Symbol("fib")
	orig, _ := p.ReadMem(fib.Value, 4)
	bp, err := p.InsertBreakpoint(fib.Value)
	if err != nil {
		t.Fatal(err)
	}
	// The raw CPU view shows the planted patch; the debugger view (ReadMem)
	// is breakpoint-transparent and still shows the original bytes.
	patched, _ := p.CPU().ReadMem(fib.Value, 4)
	if string(patched) == string(orig) {
		t.Fatal("breakpoint did not change memory")
	}
	masked, _ := p.ReadMem(fib.Value, 4)
	if string(masked) != string(orig) {
		t.Fatalf("ReadMem not breakpoint-transparent: %x != %x", masked, orig)
	}
	if err := p.RemoveBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	restored, _ := p.ReadMem(fib.Value, 4)
	if string(restored) != string(orig) {
		t.Fatal("breakpoint removal did not restore bytes")
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventExit {
		t.Errorf("event after removal = %+v", ev)
	}
}

func TestBreakpointOnCompressedInstruction(t *testing.T) {
	// tiny's ret is a 2-byte c.jr; the breakpoint must patch exactly 2
	// bytes (c.ebreak) to avoid clobbering the next instruction.
	f := build(t, workload.TinyFuncSource)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	tiny, _ := f.Symbol("tiny")
	if _, err := p.InsertBreakpoint(tiny.Value); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventBreakpoint || ev.Addr != tiny.Value {
		t.Fatalf("event = %+v", ev)
	}
	// Resume to completion; the program result must be intact.
	for ev.Kind == EventBreakpoint {
		ev, err = p.Continue()
		if err != nil {
			t.Fatal(err)
		}
	}
	if ev.ExitCode != workload.TinyFuncExpected {
		t.Errorf("exit = %d, want %d", ev.ExitCode, workload.TinyFuncExpected)
	}
}

func TestAttachForm(t *testing.T) {
	// Run half the program raw, then attach mid-flight (Figure 1, right).
	f := build(t, workload.FibSource)
	cpu, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(1000) // progress into the computation
	if cpu.Exited {
		t.Fatal("program finished before attach")
	}
	p := Attach(cpu, f)
	fib, _ := f.Symbol("fib")
	if _, err := p.InsertBreakpoint(fib.Value); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventBreakpoint {
		t.Fatalf("attached process never hit breakpoint: %+v", ev)
	}
	// Finish under control: semantics must be unaffected by the attach.
	for ev.Kind == EventBreakpoint {
		ev, err = p.Continue()
		if err != nil {
			t.Fatal(err)
		}
	}
	if ev.Kind != EventExit || ev.ExitCode != workload.FibExpected {
		t.Errorf("final event = %+v", ev)
	}
}

func TestContinueBudget(t *testing.T) {
	src := "\t.text\n_start:\n\tj _start\n"
	f := build(t, src)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.ContinueBudget(1000)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventBudget {
		t.Errorf("event = %+v, want budget", ev)
	}
}

// TestSuccessorsViaStep: single-stepping each control-flow shape lands on
// exactly the architecturally-correct successor.
func TestSuccessorsViaStep(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li t0, 1          # plain: next
	beqz t0, skip1    # not taken: next
	li t1, 2
skip1:
	beqz zero, skip2  # taken: target
	li t2, 3          # skipped
skip2:
	j after           # jal: target
	li t3, 4          # skipped
after:
	la t4, indirect
	jr t4             # jalr: register target
	li t5, 5          # skipped
indirect:
	li a0, 0
	li a7, 93
	ecall
`
	f := build(t, src)
	p, err := Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	for !p.Exited() {
		ev, err := p.StepInst()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventExit {
			break
		}
		if ev.Kind != EventBreakpoint {
			t.Fatalf("event %+v", ev)
		}
	}
	// None of the skipped instructions may have executed.
	for _, r := range []riscv.Reg{riscv.RegT2, riscv.RegT3, riscv.RegT5} {
		if p.GetReg(r) != 0 {
			t.Errorf("skipped instruction executed: %v = %d", r, p.GetReg(r))
		}
	}
	if p.GetReg(riscv.RegT1) != 2 {
		t.Errorf("fallthrough instruction missed: t1 = %d", p.GetReg(riscv.RegT1))
	}
	if p.ExitCode() != 0 {
		t.Errorf("exit = %d", p.ExitCode())
	}
}

// TestBreakpointFastSlowParity: breakpoints planted while the emulator runs
// the fused-dispatch fast path must fire exactly as they do under
// per-instruction dispatch. Planting an ebreak rewrites cached code, so this
// exercises the block cache's invalidation from the debugger side: the
// rebuilt block must terminate at the breakpoint, and disable/re-enable on
// resume must keep the two paths in lockstep.
func TestBreakpointFastSlowParity(t *testing.T) {
	src := workload.MatmulSource(8, 2)
	run := func(slowDispatch bool) (hits int, cpu *emu.CPU) {
		f := build(t, src)
		p, err := Launch(f, emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		if slowDispatch {
			p.CPU().Dispatch = emu.DispatchSlow
		}
		mul, ok := f.Symbol("multiply")
		if !ok {
			t.Fatal("no multiply symbol")
		}
		bp, err := p.InsertBreakpoint(mul.Value)
		if err != nil {
			t.Fatal(err)
		}
		bp.Callback = func(*Process, *Breakpoint) bool {
			hits++
			return true
		}
		ev, err := p.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != EventExit || ev.ExitCode != 0 {
			t.Fatalf("event = %+v", ev)
		}
		return hits, p.CPU()
	}
	fastHits, fast := run(false)
	slowHits, slow := run(true)
	if fastHits != slowHits {
		t.Errorf("breakpoint hits: fast %d, slow %d", fastHits, slowHits)
	}
	if fastHits == 0 {
		t.Error("breakpoint never hit")
	}
	if fast.Cycles != slow.Cycles || fast.Instret != slow.Instret {
		t.Errorf("counters: fast (%d cycles, %d instret), slow (%d, %d)",
			fast.Cycles, fast.Instret, slow.Cycles, slow.Instret)
	}
	for i := range fast.X {
		if fast.X[i] != slow.X[i] {
			t.Errorf("x%d: fast %#x, slow %#x", i, fast.X[i], slow.X[i])
		}
	}
}
