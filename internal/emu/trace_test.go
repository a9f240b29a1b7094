package emu

import (
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// traceCounters pulls the emu.trace.* counters out of a registry.
func traceCounters(reg *obs.Registry) (builds, hits, passes, sideExits, severs uint64) {
	return reg.Counter("emu.trace.builds").Load(),
		reg.Counter("emu.trace.hits").Load(),
		reg.Counter("emu.trace.passes").Load(),
		reg.Counter("emu.trace.side_exits").Load(),
		reg.Counter("emu.trace.severs").Load()
}

// TestTraceEquivalenceMatmul: the flagship workload runs hot enough to
// trace-compile its kernel (exercising the superops its blocks fused:
// slliAdd+fld, mul+add, addi+jal, addi+branch); the traced run must end bit-identical
// to per-instruction dispatch, and the counters must show the trace tier
// actually absorbed the loop (many passes per dispatch).
func TestTraceEquivalenceMatmul(t *testing.T) {
	f, err := workload.BuildMatmul(24, 2, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if rf, rs := fast.Run(0), slow.Run(0); rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v", rf, rs)
	}
	requireSameState(t, fast, slow)
	builds, hits, passes, _, _ := traceCounters(reg)
	if builds == 0 || hits == 0 {
		t.Fatalf("trace tier never engaged: builds=%d hits=%d", builds, hits)
	}
	if passes < 4*hits {
		t.Errorf("passes=%d hits=%d; a looping trace should absorb many iterations per dispatch", passes, hits)
	}
}

// TestTraceNoTraceEquivalence: DispatchBlock (the -notrace kill switch)
// produces identical state and zero trace activity.
func TestTraceNoTraceEquivalence(t *testing.T) {
	f, err := workload.BuildMatmul(16, 1, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	notrace, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	notrace.Dispatch = DispatchBlock
	reg := obs.NewRegistry()
	notrace.Obs = NewMetrics(reg)
	if r1, r2 := traced.Run(0), notrace.Run(0); r1 != r2 {
		t.Fatalf("stop reason: traced %v, notrace %v", r1, r2)
	}
	requireSameState(t, traced, notrace)
	if builds, hits, _, _, _ := traceCounters(reg); builds != 0 || hits != 0 {
		t.Errorf("DispatchBlock run still traced: builds=%d hits=%d", builds, hits)
	}
}

// TestTraceSeverOnSMC mirrors TestChainSeverOnSMC one tier up: a hot store
// loop gets trace-compiled, then one iteration's store (selected
// branchlessly, so it sits on the trace's predicted path) lands on code
// that was decoded earlier. The mid-trace store protocol must retire the
// prefix including the store, sever, and re-dispatch — ending bit-identical
// to per-instruction dispatch.
func TestTraceSeverOnSMC(t *testing.T) {
	src := `
	.text
_start:
	jal ra, victim        # decode and cache victim's block
	li s0, 0              # iteration counter
	li s2, 200            # iterations: well past the trace-hotness threshold
	la s3, scratch
	la s4, victim
	li t2, 150            # the iteration whose store hits code
loop:
	xor t0, s0, t2        # branchless select: t1 = (s0==t2) ? victim : scratch
	sltu t0, zero, t0
	addi t0, t0, -1
	xor t1, s3, s4
	and t1, t1, t0
	xor t1, t1, s3
	sd zero, 0(t1)        # iteration 150 overwrites victim mid-trace
	addi s0, s0, 1
	bne s0, s2, loop
	li a0, 5
	li a7, 93
	ecall

victim:
	nop                   # decoded, never-again-executed code
	nop
	nop
	nop
	ret

	.data
	.balign 8
scratch:
	.zero 16
`
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if rf, rs := fast.Run(0), slow.Run(0); rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v", rf, rs)
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 5 {
		t.Errorf("exit code %d, want 5", fast.ExitCode)
	}
	builds, _, passes, _, severs := traceCounters(reg)
	if builds == 0 || passes == 0 {
		t.Fatalf("loop never trace-compiled: builds=%d passes=%d", builds, passes)
	}
	if severs == 0 {
		t.Error("trace severs = 0; an SMC store inside a live trace must sever it")
	}
}

// TestTraceLoadFaultMidLoop: a load loop walks off the end of the stack
// mapping after the loop is trace-compiled, so the fault fires inside a
// trace pass (through the per-op page cache's refill path). Trap state,
// cost, and registers must match per-instruction dispatch exactly.
func TestTraceLoadFaultMidLoop(t *testing.T) {
	edge := StackTop + pageSize // first unmapped byte above the stack
	runBothTrap(t, fmt.Sprintf(`
	.text
_start:
	li t0, %d             # 300 doublewords below the mapping edge
	li t1, %d             # stop address past the edge: never reached
loop:
	ld a0, 0(t0)
	addi t0, t0, 8
	bne t0, t1, loop
	li a7, 93
	ecall
`, edge-8*300, edge+64))
}

// TestTraceBudgetedRunEquivalence: traces only dispatch when the remaining
// budget covers a whole pass and exit at pass boundaries otherwise, so
// chopping a run into odd-sized Run(n) slices must retire exactly n per
// slice and end identical to one unbudgeted run.
func TestTraceBudgetedRunEquivalence(t *testing.T) {
	f, err := workload.BuildMatmul(12, 1, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := whole.Run(0); r != StopExit {
		t.Fatalf("unbudgeted run: %v", r)
	}
	sliced, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	for !sliced.Exited {
		before := sliced.Instret
		r := sliced.Run(7919) // prime slice: lands mid-pass constantly
		if r != StopExit && r != StopMaxInst {
			t.Fatalf("sliced run stopped with %v (trap %v)", r, sliced.LastTrap())
		}
		if got := sliced.Instret - before; r == StopMaxInst && got != 7919 {
			t.Fatalf("budgeted slice retired %d, want exactly 7919", got)
		}
	}
	requireSameState(t, whole, sliced)
}

// TestTracePredictedTakenSideExit: a bottom-tested loop compiles its
// backedge as predicted taken; the final iteration leaves through a side
// exit on the not-taken side, which must charge the branch without the
// taken penalty the predicted path carries.
func TestTracePredictedTakenSideExit(t *testing.T) {
	f, err := asm.Assemble(`
	.text
_start:
	li t0, 500
	li a0, 0
loop:
	add a0, a0, t0
	addi t0, t0, -1       # addi+branch superop, predicted taken
	bnez t0, loop
	andi a0, a0, 0x7f
	li a7, 93
	ecall
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if rf, rs := fast.Run(0), slow.Run(0); rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v", rf, rs)
	}
	requireSameState(t, fast, slow)
	if _, _, passes, sideExits, _ := traceCounters(reg); passes == 0 || sideExits == 0 {
		t.Fatalf("loop never left a trace through a side exit: passes=%d side_exits=%d", passes, sideExits)
	}
}
