package dbi

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
)

// liveSMCSource calls g four times with t0 = 40. g's first instruction
// starts as `li a0, 1`, so t0 is dead at g's entry and a dead-register
// probe there may use it as scratch. After the second call the program
// rewrites that word into `addi a0, t0, 1`: from then on g reads t0, and a
// probe still lowered from the old liveness would clobber it. Native exit:
// 1 + 1 + 41 + 41 = 84.
const liveSMCSource = `
	.text
	.globl _start
_start:
	li s2, 0
	li s3, 0
	li s4, 4
live_loop:
	li t0, 40
	call g
	add s2, s2, a0
	addi s3, s3, 1
	li t1, 2
	bne s3, t1, live_next
	la t1, g_site
	li t2, 0x00128513         # addi a0, t0, 1
	sw t2, 0(t1)
	fence.i
live_next:
	blt s3, s4, live_loop
	mv a0, s2
	li a7, 93
	ecall

	.globl g
	.type g, @function
g:
g_site:
	.word 0x00100513          # li a0, 1 (forced 4-byte encoding)
	ret
	.size g, .-g
`

// liveSMCPatched is the rewritten g_site word.
var liveSMCPatched = []byte{0x13, 0x85, 0x12, 0x00}

// runLiveSMC runs liveSMCSource natively (mode < 0) or under the engine
// with a counting probe at g, after optionally storing the patched word
// over g_site before anything runs (prePatch). It returns the exit code,
// the guest-visible (virtualized) instruction count, the raw count and
// the probe's count.
func runLiveSMC(t *testing.T, mode codegen.Mode, prePatch bool) (exit int, insts, raw, calls uint64) {
	t.Helper()
	f, err := asm.Assemble(liveSMCSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g, _ := f.Symbol("g")
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if prePatch {
		if err := p.WriteMem(g.Value, liveSMCPatched); err != nil {
			t.Fatal(err)
		}
	}
	if mode < 0 {
		ev, err := p.ContinueBudget(runBudget)
		if err != nil || ev.Kind != proc.EventExit {
			t.Fatalf("native run: %+v, %v", ev, err)
		}
		return p.ExitCode(), p.CPU().Instret, p.CPU().Instret, 0
	}
	e, err := Attach(p, f, Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	v := e.NewVar("g_calls", 8)
	if err := e.ProbeAt(g.Value, snippet.Increment(v)); err != nil {
		t.Fatal(err)
	}
	ev, err := e.ContinueBudget(runBudget)
	if err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("dbi run: %+v, %v", ev, err)
	}
	if calls, err = e.ReadVar(v); err != nil {
		t.Fatal(err)
	}
	raw = p.CPU().Instret
	return p.ExitCode(), uint64(int64(raw) - e.Comp().ExtraInstret), raw, calls
}

// TestDBILivenessAfterCodeStore checks that dead-register scratch never
// outlives the code it was computed from: a store into a function whose
// liveness the engine used (and a function already patched before the
// engine first looks at it) must make the engine spill there. Both modes
// must match the native run exactly.
func TestDBILivenessAfterCodeStore(t *testing.T) {
	for _, prePatch := range []bool{false, true} {
		nExit, nInsts, _, _ := runLiveSMC(t, -1, prePatch)
		want := 84
		if prePatch {
			want = 4 * 41
		}
		if nExit != want {
			t.Fatalf("prePatch=%v: native exit %d, want %d", prePatch, nExit, want)
		}
		var raws [2]uint64
		for i, mode := range []codegen.Mode{codegen.ModeDeadRegister, codegen.ModeSpillAlways} {
			exit, insts, raw, calls := runLiveSMC(t, mode, prePatch)
			if exit != nExit || insts != nInsts || calls != 4 {
				t.Errorf("prePatch=%v %v: exit %d, %d instructions, %d calls; native exit %d, %d instructions, 4 calls",
					prePatch, mode, exit, insts, calls, nExit, nInsts)
			}
			raws[i] = raw
		}
		if !prePatch && raws[0] >= raws[1] {
			t.Errorf("dead-register run retired %d raw instructions, spill run %d: liveness was never used",
				raws[0], raws[1])
		}
	}
}
