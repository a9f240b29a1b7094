package emu

import (
	"bytes"
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
	"rvdyn/internal/riscv"
	"rvdyn/internal/workload"
)

// runBoth executes the same binary on the fused-dispatch fast path and on
// the per-instruction slow path, requiring both to stop the same way, and
// returns the two CPUs for state comparison.
func runBoth(t *testing.T, src string, opts asm.Options) (fast, slow *CPU) {
	t.Helper()
	f, err := asm.Assemble(src, opts)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err = New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow, err = New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	var fastOut, slowOut bytes.Buffer
	fast.Stdout, slow.Stdout = &fastOut, &slowOut
	rf := fast.Run(0)
	rs := slow.Run(0)
	if rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v (fast trap %v, slow trap %v)",
			rf, rs, fast.LastTrap(), slow.LastTrap())
	}
	if fastOut.String() != slowOut.String() {
		t.Errorf("stdout differs: fast %q, slow %q", fastOut.String(), slowOut.String())
	}
	return fast, slow
}

// requireSameState asserts the architectural state the ISSUE cares about —
// cycle count, retired instructions, every register, FP state, PC, exit
// status — is bit-identical between the two dispatch paths.
func requireSameState(t *testing.T, fast, slow *CPU) {
	t.Helper()
	if fast.Cycles != slow.Cycles {
		t.Errorf("Cycles: fast %d, slow %d", fast.Cycles, slow.Cycles)
	}
	if fast.Instret != slow.Instret {
		t.Errorf("Instret: fast %d, slow %d", fast.Instret, slow.Instret)
	}
	if fast.PC != slow.PC {
		t.Errorf("PC: fast %#x, slow %#x", fast.PC, slow.PC)
	}
	if fast.FCSR != slow.FCSR {
		t.Errorf("FCSR: fast %#x, slow %#x", fast.FCSR, slow.FCSR)
	}
	if fast.Exited != slow.Exited || fast.ExitCode != slow.ExitCode {
		t.Errorf("exit: fast (%v, %d), slow (%v, %d)",
			fast.Exited, fast.ExitCode, slow.Exited, slow.ExitCode)
	}
	for i := range fast.X {
		if fast.X[i] != slow.X[i] {
			t.Errorf("x%d: fast %#x, slow %#x", i, fast.X[i], slow.X[i])
		}
	}
	for i := range fast.F {
		if fast.F[i] != slow.F[i] {
			t.Errorf("f%d: fast %#x, slow %#x", i, fast.F[i], slow.F[i])
		}
	}
}

// TestFastSlowEquivalenceMatmul: the fused-dispatch engine must produce the
// exact architectural state — including the cost-model counters the virtual
// clock derives from — that per-instruction stepping produces on the
// paper's matmul workload.
func TestFastSlowEquivalenceMatmul(t *testing.T) {
	fast, slow := runBoth(t, workload.MatmulSource(12, 2), asm.Options{})
	requireSameState(t, fast, slow)
	if fast.Instret < 10000 {
		t.Errorf("matmul retired only %d instructions; workload too small to exercise blocks", fast.Instret)
	}
}

// TestFastSlowEquivalenceSuite: every workload in the suite (jump tables,
// tail calls, far calls, recursion, frame pointers) ends in identical state
// on both dispatch paths.
func TestFastSlowEquivalenceSuite(t *testing.T) {
	for _, p := range workload.Programs() {
		t.Run(p.Name, func(t *testing.T) {
			fast, slow := runBoth(t, p.Source, asm.Options{})
			requireSameState(t, fast, slow)
			if fast.ExitCode != p.ExitCode {
				t.Errorf("exit code %d, want %d", fast.ExitCode, p.ExitCode)
			}
		})
	}
}

// patchWord is the encoding of "addi a0, zero, 42", the instruction the
// self-modifying-code tests write over an "addi a0, zero, 7".
func patchWord(t *testing.T) uint32 {
	t.Helper()
	w, err := riscv.Encode(riscv.Inst{
		Mn: riscv.MnADDI, Rd: riscv.RegA0, Rs1: riscv.X0,
		Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: 42,
	})
	if err != nil {
		t.Fatalf("encode patch word: %v", err)
	}
	return w
}

// TestSelfModifyingCodeCrossBlock: a function is executed (so its block is
// decoded and cached), then a store from a *different* block rewrites its
// first instruction, and the function runs again. The store must invalidate
// the cached block: the second call returns 42, not the stale 7. Exit code
// is the sum, 49, on both dispatch paths.
func TestSelfModifyingCodeCrossBlock(t *testing.T) {
	src := fmt.Sprintf(`
	.text
_start:
	li s0, 0              # pass counter
	li s1, 0              # accumulator
	li t1, %d             # encoding of "addi a0, zero, 42"
again:
	jal ra, target
	add s1, s1, a0
	bnez s0, done
	la t0, target
	sw t1, 0(t0)          # patch target's first instruction
	li s0, 1
	j again
done:
	mv a0, s1
	li a7, 93
	ecall

target:
	addi a0, zero, 7
	ret
`, patchWord(t))
	// NoCompress keeps every instruction 4 bytes so the sw overwrites
	// exactly one instruction.
	fast, slow := runBoth(t, src, asm.Options{NoCompress: true})
	requireSameState(t, fast, slow)
	if fast.ExitCode != 49 {
		t.Errorf("exit code %d, want 49 (7 from the original body + 42 from the patched one)", fast.ExitCode)
	}
}

// TestSelfModifyingCodeInBlock: the store rewrites an instruction *later in
// its own straight-line block*. The fast path has already fused the stale
// instruction into the running block, so it must notice the generation bump
// mid-block and re-decode before reaching the patched address.
func TestSelfModifyingCodeInBlock(t *testing.T) {
	src := fmt.Sprintf(`
	.text
_start:
	la t0, patchme
	li t1, %d             # encoding of "addi a0, zero, 42"
	li a0, 0
	sw t1, 0(t0)          # overwrites an instruction in this same block
	addi zero, zero, 0
patchme:
	addi a0, zero, 7      # replaced before it executes
	li a7, 93
	ecall
`, patchWord(t))
	fast, slow := runBoth(t, src, asm.Options{NoCompress: true})
	requireSameState(t, fast, slow)
	if fast.ExitCode != 42 {
		t.Errorf("exit code %d, want 42 (stale pre-patch instruction executed)", fast.ExitCode)
	}
}

// TestFastPathBudgetExactness: Run(n) must stop on the same instruction on
// both paths even when n lands mid-block, mid-pass, or inside a fused pair
// or superop, and resuming must finish the program identically — at block
// and at trace granularity. Small budgets keep slices shorter than most
// blocks (so the slow path takes the remainder); odd primes land on every
// op boundary in turn.
func TestFastPathBudgetExactness(t *testing.T) {
	f, err := asm.Assemble(workload.MatmulSource(6, 1), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, d := range []struct {
		name     string
		dispatch Dispatch
	}{{"block", DispatchBlock}, {"trace", DispatchTrace}} {
		for _, n := range []uint64{1, 2, 3, 5, 7, 11, 13, 197} {
			t.Run(fmt.Sprintf("%s/%d", d.name, n), func(t *testing.T) {
				fast, err := New(f, P550())
				if err != nil {
					t.Fatal(err)
				}
				fast.Dispatch = d.dispatch
				reg := obs.NewRegistry()
				fast.Obs = NewMetrics(reg)
				slow, err := New(f, P550())
				if err != nil {
					t.Fatal(err)
				}
				slow.Dispatch = DispatchSlow
				for !fast.Exited {
					rf := fast.Run(n)
					rs := slow.Run(n)
					if rf != rs {
						t.Fatalf("stop reason after %d retired: fast %v, slow %v", fast.Instret, rf, rs)
					}
					if fast.PC != slow.PC || fast.Instret != slow.Instret || fast.Cycles != slow.Cycles {
						t.Fatalf("divergence: fast pc=%#x instret=%d cycles=%d, slow pc=%#x instret=%d cycles=%d",
							fast.PC, fast.Instret, fast.Cycles, slow.PC, slow.Instret, slow.Cycles)
					}
				}
				requireSameState(t, fast, slow)
				if n >= 5 && reg.Counter("emu.chain.hits").Load() == 0 {
					t.Error("no block was dispatched on the fast tier; the budget never reached it")
				}
				if d.dispatch == DispatchTrace && n == 197 && reg.Counter("emu.trace.hits").Load() == 0 {
					t.Error("no trace was dispatched at the largest budget")
				}
			})
		}
	}
}

// TestSelfModifyingCodeStorePair: the first store of a fused sd pair
// rewrites the pair's own second instruction. The pair must split after
// the first store so the rewritten bytes are re-decoded: the stale second
// sd would overwrite the exit sequence.
func TestSelfModifyingCodeStorePair(t *testing.T) {
	src := fmt.Sprintf(`
	.text
_start:
	li t1, 0x13           # nop, placed in the high word
	slli t1, t1, 32
	li t3, %d             # "addi a0, zero, 42" in the low word
	or t1, t1, t3
	li a0, 0
	la t0, patchme
	sd t1, 0(t0)          # rewrites patchme and the instruction after it
patchme:
	sd t2, 8(t0)          # fused with the sd above; replaced before it runs
	addi a0, zero, 7      # becomes a nop
	li a7, 93
	ecall
`, patchWord(t))
	fast, slow := runBoth(t, src, asm.Options{NoCompress: true})
	requireSameState(t, fast, slow)
	if fast.ExitCode != 42 {
		t.Errorf("exit code %d, want 42 (the stale second store ran)", fast.ExitCode)
	}
}

// BenchmarkBuildEveryPC builds a block at every instruction address of
// matmul's text, the pure cost of block compilation.
func BenchmarkBuildEveryPC(b *testing.B) {
	f, err := asm.Assemble(workload.MatmulSource(6, 1), asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(f, P550())
	if err != nil {
		b.Fatal(err)
	}
	var pcs []uint64
	for a := c.PC; ; {
		in, err := c.fetchAt(a)
		if err != nil || !in.Valid() {
			break
		}
		pcs = append(pcs, a)
		a = in.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pc := range pcs {
			c.buildBlock(pc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pcs)), "ns/build")
}

// BenchmarkSMCStorm: a loop that stores over a function's code and calls
// it each iteration, so blocks are rebuilt on every pass — the
// rebuild-heavy case block compilation cost shows on.
func BenchmarkSMCStorm(b *testing.B) {
	const src = `
	.text
_start:
	la s1, victim
	li s0, 2000
	li t1, 0x00000013     # nop
loop:
	sw t1, 4(s1)
	jal ra, victim
	addi s0, s0, -1
	bnez s0, loop
	li a0, 0
	li a7, 93
	ecall
victim:
	addi a2, a2, 1
	nop
	li a3, 1
	slli a4, a3, 3
	add a4, a4, s1
	ld a5, 0(a4)
	ret
`
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(f, P550())
		if err != nil {
			b.Fatal(err)
		}
		if r := c.Run(0); r != StopExit {
			b.Fatalf("stop %v %v", r, c.LastTrap())
		}
	}
}

// BenchmarkColdRun: Run alone on a fresh CPU for each small suite
// program: every block is built once and run a few times.
func BenchmarkColdRun(b *testing.B) {
	for _, p := range workload.Programs() {
		if p.Name != "tailcall" && p.Name != "farcall" {
			continue
		}
		f, err := asm.Assemble(p.Source, asm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := New(f, P550())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.Run(0)
			}
		})
	}
}
