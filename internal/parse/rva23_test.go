package parse

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
)

// Analysis of RVA23-profile binaries (paper Section 3.4). The CFG
// construction and classification code needed no changes for the new
// extensions — instruction metadata and value semantics arrived through
// the registration hook and the semantics JSON. The one deliberate
// addition is the jump-table pattern matcher learning the Zba sh3add
// indexing idiom, tested below.

// rva23JumpTable is the dispatch workload rewritten the way an RVA23
// compiler emits it: sh3add replaces the slli+add pair.
const rva23JumpTable = `
	.text
	.globl _start
_start:
	li s0, 0
	li s1, 0
jt_loop:
	li t0, 6
	bge s0, t0, jt_done
	mv a0, s0
	call dispatch
	add s1, s1, a0
	addi s0, s0, 1
	j jt_loop
jt_done:
	mv a0, s1
	li a7, 93
	ecall

	.globl dispatch
	.type dispatch, @function
dispatch:
	li t0, 4
	bgeu a0, t0, case_default
	la t1, table
	sh3add t1, a0, t1      # Zba: t1 = (a0 << 3) + t1
	ld t3, 0(t1)
	jr t3
case0:
	li a0, 10
	ret
case1:
	li a0, 21
	ret
case2:
	li a0, 32
	ret
case3:
	li a0, 43
	ret
case_default:
	li a0, 99
	ret
	.size dispatch, .-dispatch

	.rodata
	.balign 8
table:
	.dword case0
	.dword case1
	.dword case2
	.dword case3
`

func TestRVA23JumpTableIdiom(t *testing.T) {
	f, err := asm.Assemble(rva23JumpTable, asm.Options{Arch: riscv.RVA23Subset})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Extensions.Has(riscv.ExtZba) {
		t.Fatalf("attributes lost zba: %v", st.Extensions)
	}
	cfg, err := Parse(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
			t.Logf("  %v purpose=%v", b, b.Purpose)
		}
		t.Fatal("sh3add-indexed jump table not recognized")
	}
	if len(jt.Table.Targets) != 4 {
		t.Errorf("targets = %#x", jt.Table.Targets)
	}
	if jt.Table.Stride != 8 {
		t.Errorf("stride = %d, want 8", jt.Table.Stride)
	}
}

// TestRVA23SliceThroughZba: the backward-slice constant resolver flows
// through sh2add using only its JSON semantics entry — no parser change.
func TestRVA23SliceThroughZba(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl f
	.type f, @function
f:
	la t0, target       # t0 = &target
	li t1, 0
	sh2add t2, t1, t0   # t2 = (0 << 2) + t0 = &target
	jalr zero, 0(t2)    # must resolve as an intra-function jump
target:
	ret
	.size f, .-f
`
	f, err := asm.Assemble(src, asm.Options{Arch: riscv.RVA23Subset})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := symtab.FromFile(f)
	cfg, err := Parse(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := cfg.FuncByName("f")
	if fn == nil {
		t.Fatal("f not found")
	}
	jumps := 0
	for _, b := range fn.Blocks {
		if b.Purpose == PurposeJump && b.Last().IsJALR() {
			jumps++
		}
	}
	if jumps != 1 {
		for _, b := range fn.Blocks {
			t.Logf("  %v purpose=%v last=%v", b, b.Purpose, b.Last())
		}
		t.Errorf("jalr through sh2add not resolved as jump (%d)", jumps)
	}
}

// TestRVA23CzeroParses: conditional-move-bearing code parses as plain
// straight-line arithmetic (czero is CatArith, not control flow).
func TestRVA23CzeroParses(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li t0, 1
	li t1, 2
	czero.eqz t2, t0, t1
	czero.nez t3, t0, t1
	li a0, 0
	li a7, 93
	ecall
`
	f, err := asm.Assemble(src, asm.Options{Arch: riscv.RVA23Subset})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := symtab.FromFile(f)
	cfg, err := Parse(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := cfg.Funcs[0]
	if len(fn.Blocks) != 1 {
		t.Errorf("straight-line czero code split into %d blocks", len(fn.Blocks))
	}
}
