package emu

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/riscv"
)

// stubLoopSource is an endless loop shaped like a DBI lookup stub: an ALU
// op, a store and a load, a taken branch, scratch-CSR saves and restores,
// and a dbi.jt (planted over the nop at jt) back to loop through scratch CSR
// 0x7C3. One iteration retires stubLoopLen instructions.
const stubLoopSource = `
	.text
_start:
	li t0, 0
loop:
	addi t0, t0, 1
	sd t0, -8(sp)
	ld t1, -8(sp)
	bnez t0, over
	nop
over:
	csrrw x0, 0x7c0, t0
	csrrs t2, 0x7c0, x0
	la t3, loop
	csrrw x0, 0x7c3, t3
jt:
	nop
`

const stubLoopLen = 10

// newStubLoop assembles stubLoopSource, plants the dbi.jt (delta 0), and
// attaches a DBIComp.
func newStubLoop(t *testing.T) *CPU {
	t.Helper()
	f, err := asm.Assemble(stubLoopSource, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	jt, ok := f.Symbol("jt")
	if !ok {
		t.Fatal("no jt symbol")
	}
	enc, err := riscv.EncodeBytes(riscv.Inst{Mn: riscv.MnDBIJT, Rd: riscv.X0, Rs1: riscv.X0,
		Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: -2048})
	if err != nil {
		t.Fatalf("encode dbi.jt: %v", err)
	}
	if err := c.WriteMem(jt.Value, enc); err != nil {
		t.Fatal(err)
	}
	c.DBIComp = &DBIComp{Deltas: []CompDelta{{Insts: 1, Cycles: 2}}}
	return c
}

// TestStepAllocationFree guards the per-instruction allocation the slow
// path used to pay (exec moved every instruction to the heap): once the
// loop's code is decoded, neither Step nor a whole-iteration Run allocates
// on any tier, across ALU, load/store, taken-branch, scratch-CSR and dbi.jt
// instructions.
func TestStepAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		slow bool
		step bool
	}{
		{"slow/step", true, true},
		{"fast/step", false, true},
		{"fast/iteration", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newStubLoop(t)
			c.SlowDispatch = tc.slow
			iter := func() {
				if tc.step {
					for i := 0; i < stubLoopLen; i++ {
						if r := c.Step(); r != StopMaxInst {
							t.Fatalf("step stopped with %v (%v)", r, c.LastTrap())
						}
					}
				} else if r := c.Run(stubLoopLen); r != StopMaxInst {
					t.Fatalf("run stopped with %v (%v)", r, c.LastTrap())
				}
			}
			// Warm up past decode, block builds and the trace trigger.
			for i := 0; i < 200; i++ {
				iter()
			}
			hits := c.DBIComp.IBLHits
			if n := testing.AllocsPerRun(100, iter); n != 0 {
				t.Errorf("%v allocations per loop iteration, want 0", n)
			}
			if got := c.DBIComp.IBLHits - hits; got != 101 {
				t.Errorf("dbi.jt retired %d times in 101 iterations", got)
			}
		})
	}
}

// TestScratchCSRTrapParity: scratch-CSR ops are block body ops, so without
// an attached DBIComp the fault surfaces from a body handler rather than a
// terminator. The trap must match per-instruction dispatch exactly: PC,
// message, Cycles and Instret.
func TestScratchCSRTrapParity(t *testing.T) {
	fast, slow := runBoth(t, `
	.text
_start:
	li t0, 5
	addi t0, t0, 1
	csrrw x0, 0x7c1, t0
	addi t0, t0, 1
	li a7, 93
	ecall
`, asm.Options{})
	requireSameState(t, fast, slow)
	if fast.LastTrap() == nil || slow.LastTrap() == nil {
		t.Fatalf("traps: fast %v, slow %v", fast.LastTrap(), slow.LastTrap())
	}
	if f, s := fast.LastTrap().Error(), slow.LastTrap().Error(); f != s {
		t.Errorf("trap message: fast %q, slow %q", f, s)
	}
	if fast.X[riscv.RegT0] != 6 {
		t.Errorf("t0 = %d, want 6 (the prefix before the CSR op retired)", fast.X[riscv.RegT0])
	}
}

// TestDBIJTTrapParity: a dbi.jt whose delta is gone traps from the block
// or trace tier with the prefix retired and the PC on the dbi.jt, exactly
// as per-instruction dispatch reports it.
func TestDBIJTTrapParity(t *testing.T) {
	var cpus [2]*CPU
	for i, slow := range []bool{false, true} {
		c := newStubLoop(t)
		c.SlowDispatch = slow
		// Warm up past the trace trigger, stopping at loop (after the
		// one-instruction prologue), then drop the delta table.
		if r := c.Run(1 + 200*stubLoopLen); r != StopMaxInst {
			t.Fatalf("warm-up stopped with %v (%v)", r, c.LastTrap())
		}
		c.DBIComp.Deltas = nil
		hits := c.traceHits
		if r := c.Run(0); r != StopTrap {
			t.Fatalf("slow=%v: stopped with %v, want trap", slow, r)
		}
		if !slow && c.traceHits == hits {
			t.Error("the trap did not come from a trace; the trace-tier dbi.jt exit went untested")
		}
		cpus[i] = c
	}
	fast, slow := cpus[0], cpus[1]
	requireSameState(t, fast, slow)
	if f, s := fast.LastTrap().Error(), slow.LastTrap().Error(); f != s {
		t.Errorf("trap message: fast %q, slow %q", f, s)
	}
}
