package emu

import (
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/riscv"
)

// stubLoopSource is an endless loop shaped like DBI-translated code: an
// ALU op, a store and a load, a taken branch, the hash arithmetic of a
// lookup stub (andi, srli) and a materialized link value (addiw), a
// compensation accumulator (dbi.acc, planted over the nop at acc),
// scratch-CSR saves and restores, and a dbi.jt (planted over the nop at
// jt) back to loop through scratch CSR 0x7C3. One iteration retires
// stubLoopLen instructions.
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
	andi t4, t0, -2
	srli t5, t0, 1
	addiw t6, t0, -5
acc:
	nop
	csrrw x0, 0x7c0, t0
	csrrs t2, 0x7c0, x0
	la t3, loop
	csrrw x0, 0x7c3, t3
jt:
	nop
`

const stubLoopLen = 14

// newStubLoop assembles stubLoopSource, plants the dbi.acc (delta 0) and
// the dbi.jt (delta 1), and attaches a DBIComp holding both deltas.
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
	for _, p := range []struct {
		sym string
		mn  riscv.Mnemonic
		idx int64
	}{{"acc", riscv.MnDBIACC, 0}, {"jt", riscv.MnDBIJT, 1}} {
		s, ok := f.Symbol(p.sym)
		if !ok {
			t.Fatalf("no %s symbol", p.sym)
		}
		enc, err := riscv.EncodeBytes(riscv.Inst{Mn: p.mn, Rd: riscv.X0, Rs1: riscv.X0,
			Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: p.idx - 2048})
		if err != nil {
			t.Fatalf("encode %v: %v", p.mn, err)
		}
		if err := c.WriteMem(s.Value, enc); err != nil {
			t.Fatal(err)
		}
	}
	c.DBIComp = &DBIComp{Deltas: []CompDelta{{Insts: 1, Cycles: 2}, {Insts: 3, Cycles: 4}}}
	return c
}

// TestStepAllocationFree guards the per-instruction allocation the slow
// path used to pay (exec moved every instruction to the heap): once the
// loop's code is decoded, neither Step nor a whole-iteration Run allocates
// on any tier, across ALU, load/store, taken-branch, andi/srli/addiw,
// dbi.acc, scratch-CSR and dbi.jt instructions. The fast tier must run the
// DBI instructions through their dedicated op kinds.
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
			if tc.slow {
				c.Dispatch = DispatchSlow
			}
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
			if tc.step {
				return // one-instruction budgets never dispatch a block
			}
			kinds := map[uint8]bool{}
			for _, b := range cachedBlocks(c) {
				for _, op := range b.ops {
					kinds[op.kind] = true
				}
			}
			for _, k := range []uint8{otAndi, otSrli, otAddiw, otDBIAcc, otScratchW, otScratchR} {
				if !kinds[k] {
					t.Errorf("no cached block has an op of kind %d", k)
				}
			}
		})
	}
}

// TestScratchCSRTrapParity: scratch-CSR ops are ordinary block ops, so
// without an attached DBIComp the fault surfaces mid-block rather than from
// a terminator. The trap must match per-instruction dispatch exactly: PC,
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

// TestDBIJTTrapParity: a dbi.jt or dbi.acc whose delta is gone traps from
// the trace and block tiers with the prefix retired and the PC on the
// faulting instruction, exactly as per-instruction dispatch reports it.
func TestDBIJTTrapParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deltas int // deltas kept: dbi.acc uses index 0, dbi.jt index 1
		sym    string
	}{
		{"dbi.jt", 1, "jt"},
		{"dbi.acc", 0, "acc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cpus [3]*CPU
			for i, d := range []Dispatch{DispatchTrace, DispatchBlock, DispatchSlow} {
				c := newStubLoop(t)
				c.Dispatch = d
				// Warm up past the trace trigger, stopping at loop (after
				// the one-instruction prologue), then drop the deltas.
				if r := c.Run(1 + 200*stubLoopLen); r != StopMaxInst {
					t.Fatalf("warm-up stopped with %v (%v)", r, c.LastTrap())
				}
				c.DBIComp.Deltas = c.DBIComp.Deltas[:tc.deltas]
				hits := c.traceHits
				if r := c.Run(0); r != StopTrap {
					t.Fatalf("dispatch %d: stopped with %v, want trap", d, r)
				}
				if d == DispatchTrace && c.traceHits == hits {
					t.Error("the trap did not come from a trace; the trace-tier exit went untested")
				}
				cpus[i] = c
			}
			f, _ := asm.Assemble(stubLoopSource, asm.Options{NoCompress: true})
			if s, _ := f.Symbol(tc.sym); cpus[2].PC != s.Value {
				t.Errorf("slow path trapped at %#x, want %s at %#x", cpus[2].PC, tc.sym, s.Value)
			}
			for _, c := range cpus[:2] {
				requireSameState(t, c, cpus[2])
				if f, s := c.LastTrap().Error(), cpus[2].LastTrap().Error(); f != s {
					t.Errorf("trap message: dispatch %d %q, slow %q", c.Dispatch, f, s)
				}
			}
		})
	}
}

// opKindLoop runs one body (%s, its result in t1) 300 times over operands
// that sweep s0 from negative to positive and s1's low word across
// 0x7fffffff, folding every result into s3.
const opKindLoop = `
	.text
_start:
	li s0, -77777
	li s1, 0x57fffff00
	li s2, 300
	li s3, 0
loop:
	li t1, 0
body:
	%s
	xor s3, s3, t1
	addi s0, s0, 517
	addi s1, s1, 1
	addi s2, s2, -1
	bnez s2, loop
	mv a0, s3
	li a7, 93
	ecall
`

// TestDBIOpKindsTierParity: the op kinds for what a DBI engine emits
// (andi, srli, addiw, the scratch-CSR moves), their rd == x0 forms, and
// the scratch-CSR forms that keep csrOp run in a hot loop under trace,
// block and per-instruction dispatch. Every tier must end in the identical
// state: registers, scratch CSRs, Cycles and Instret.
func TestDBIOpKindsTierParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string // the instruction under test first
		kind uint8  // the op kind the first instruction specializes to
	}{
		{"andi", "andi t1, s0, -16", otAndi},
		{"andi/rd=x0", "andi x0, s0, -1", otStraight},
		{"srli", "srli t1, s0, 3", otSrli},
		{"srli/63", "srli t1, s0, 63", otSrli},
		{"srli/rd=x0", "srli x0, s0, 1", otStraight},
		{"addiw/wrap", "addiw t1, s1, 1", otAddiw},
		{"addiw/neg", "addiw t1, s0, -2048", otAddiw},
		{"addiw/rd=x0", "addiw x0, s1, 7", otStraight},
		{"scratch-write", "csrrw x0, 0x7c1, s0\n\tcsrrs t1, 0x7c1, x0", otScratchW},
		{"scratch-read", "csrrs t1, 0x7c2, x0\n\tcsrrw x0, 0x7c2, s0", otScratchR},
		{"csrrw-swap", "csrrw t1, 0x7c1, s0", otCSR},
		{"csrrw-x0-src", "csrrw x0, 0x7c0, x0\n\tcsrrs t1, 0x7c0, x0", otCSR},
		{"csrrs-set", "csrrs t1, 0x7c2, s0", otCSR},
		{"csrrs-x0-dst", "csrrs x0, 0x7c3, x0", otCSR},
		{"csrrwi", "csrrwi t1, 0x7c3, 5", otCSR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := asm.Assemble(fmt.Sprintf(opKindLoop, tc.body), asm.Options{NoCompress: true})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			var cpus [3]*CPU
			for i, d := range []Dispatch{DispatchTrace, DispatchBlock, DispatchSlow} {
				c, err := New(f, P550())
				if err != nil {
					t.Fatal(err)
				}
				c.Dispatch = d
				c.DBIComp = &DBIComp{Scratch: [4]uint64{0x11, 0x22, 0x33, 0x44}}
				if r := c.Run(0); r != StopExit {
					t.Fatalf("dispatch %d: stopped with %v (%v)", d, r, c.LastTrap())
				}
				cpus[i] = c
			}
			body, _ := f.Symbol("body")
			in, err := cpus[0].fetchAt(body.Value)
			if err != nil {
				t.Fatal(err)
			}
			if k := opKind(&in); k != tc.kind {
				t.Errorf("%v specializes to kind %d, want %d", in, k, tc.kind)
			}
			if cpus[0].traceHits == 0 {
				t.Error("the loop never ran as a trace")
			}
			for _, c := range cpus[:2] {
				requireSameState(t, c, cpus[2])
				if c.DBIComp.Scratch != cpus[2].DBIComp.Scratch {
					t.Errorf("scratch CSRs: dispatch %d %#x, slow %#x", c.Dispatch, c.DBIComp.Scratch, cpus[2].DBIComp.Scratch)
				}
			}
		})
	}
}
