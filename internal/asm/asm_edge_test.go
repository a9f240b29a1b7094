package asm

import (
	"strings"
	"testing"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/riscv"
)

func TestCustomSection(t *testing.T) {
	f := mustAssemble(t, `
	.section .mydata
blob:
	.word 0x1234
	.text
_start:
	nop
`, Options{})
	s := f.Section(".mydata")
	if s == nil {
		t.Fatal("custom section missing")
	}
	if s.Flags&elfrv.SHFWrite == 0 || s.Flags&elfrv.SHFAlloc == 0 {
		t.Errorf("custom section flags = %#x", s.Flags)
	}
}

func TestP2AlignAndBalign(t *testing.T) {
	f := mustAssemble(t, `
	.data
	.byte 1
	.p2align 3
a8:
	.byte 2
	.balign 16
a16:
	.byte 3
	.text
_start:
	nop
`, Options{})
	s1, _ := f.Symbol("a8")
	s2, _ := f.Symbol("a16")
	if s1.Value%8 != 0 {
		t.Errorf("a8 at %#x", s1.Value)
	}
	if s2.Value%16 != 0 {
		t.Errorf("a16 at %#x", s2.Value)
	}
}

func TestCharLiteralAndExpressions(t *testing.T) {
	f := mustAssemble(t, `
	.equ X, 'A'
	.equ Y, X+1
	.equ Z, 2*3+4
	.text
_start:
	li a0, X
	li a1, Y
	li a2, Z
`, Options{})
	insts := decodeText(t, f)
	if insts[0].Imm != 'A' || insts[1].Imm != 'B' || insts[2].Imm != 10 {
		t.Errorf("imms = %d %d %d", insts[0].Imm, insts[1].Imm, insts[2].Imm)
	}
}

func TestSymbolPlusAddend(t *testing.T) {
	f := mustAssemble(t, `
	.data
arr:
	.dword 1, 2, 3
	.text
_start:
	la t0, arr+16
`, Options{NoCompress: true})
	sym, _ := f.Symbol("arr")
	insts := decodeText(t, f)
	got := insts[0].Imm<<12 + insts[1].Imm
	if uint64(got) != sym.Value+16 {
		t.Errorf("la arr+16 = %#x, want %#x", got, sym.Value+16)
	}
}

func TestDirectiveErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown directive", "\t.bogus 1\n"},
		{"bad align", "\t.align 99\n"},
		{"balign not power", "\t.balign 12\n"},
		{"bad string", "\t.asciz hello\n"},
		{"size without expr", "\t.size foo\n"},
		{"type bad kind", "\t.type foo, @zebra\n"},
		{"negative zero", "\t.zero -1\n"},
		{"bad double", "\t.double banana\n"},
		{"section missing name", "\t.section\n"},
		{"equ missing value", "\t.equ X\n"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src, Options{}); err == nil {
			t.Errorf("%s: assembled without error", c.name)
		}
	}
}

func TestOperandErrors(t *testing.T) {
	cases := []string{
		"\tlw a0, a1\n",             // load without memory operand
		"\tsw a0, a1\n",             // store without memory operand
		"\tbeq a0, 5, 8\n",          // branch with imm rs2
		"\tjalr 5\n",                // jalr with immediate only
		"\tla a0, 5\n",              // la with literal
		"\tcsrrw a0, 0x10000, a1\n", // handled? csr too big -> encode range
		"\tamoadd.w a0, a1, a2\n",   // amo without (mem)
		"\tfmadd.d ft0, ft1, ft2\n", // fma needs 4 ops
		"\tlr.w a0, a1\n",           // lr without (mem)
		"\taddi a0, a1, %hi\n",      // malformed reloc
		"\tbeqz a0\n",               // pseudo operand count
		"\tcall\n",                  // call without target
		"\tcsrr a0, notacsr\n",      // bad csr name
		"\trdcycle 5\n",             // non-register
	}
	for _, src := range cases {
		full := "\t.text\n_start:\n" + src
		if _, err := Assemble(full, Options{}); err == nil {
			t.Errorf("%q: assembled without error", strings.TrimSpace(src))
		}
	}
}

func TestLabelOnSameLine(t *testing.T) {
	f := mustAssemble(t, `
	.text
_start: nop
here: there: ret
`, Options{})
	if _, ok := f.Symbol("here"); !ok {
		t.Error("here missing")
	}
	h, _ := f.Symbol("here")
	th, _ := f.Symbol("there")
	if h.Value != th.Value {
		t.Error("stacked labels differ")
	}
}

func TestBranchRangeError(t *testing.T) {
	// A branch to a label beyond ±4 KiB must fail at encode.
	var b strings.Builder
	b.WriteString("\t.text\n_start:\n\tbeq a0, a1, far\n")
	for i := 0; i < 2000; i++ {
		b.WriteString("\tnop\n")
	}
	b.WriteString("far:\n\tret\n")
	if _, err := Assemble(b.String(), Options{NoCompress: true}); err == nil {
		t.Error("out-of-range branch assembled")
	}
}

func TestTextBaseOption(t *testing.T) {
	f := mustAssemble(t, "\t.text\n_start:\n\tnop\n", Options{TextBase: 0x40000})
	if f.Entry != 0x40000 {
		t.Errorf("entry = %#x", f.Entry)
	}
	if s := f.Section(".text"); s.Addr != 0x40000 {
		t.Errorf(".text at %#x", s.Addr)
	}
}

func TestFenceVariants(t *testing.T) {
	f := mustAssemble(t, `
	.text
_start:
	fence
	fence.i
`, Options{})
	insts := decodeText(t, f)
	if insts[0].Mn != riscv.MnFENCE || insts[1].Mn != riscv.MnFENCEI {
		t.Errorf("fences = %v %v", insts[0].Mn, insts[1].Mn)
	}
	if insts[0].Imm != 0x0ff {
		t.Errorf("fence pred/succ = %#x, want iorw,iorw", insts[0].Imm)
	}
}

func TestWordDataWithNegatives(t *testing.T) {
	f := mustAssemble(t, `
	.data
v:
	.half -2
	.word -3
	.text
_start:
	nop
`, Options{})
	d := f.Section(".data").Data
	if d[0] != 0xfe || d[1] != 0xff {
		t.Errorf("half -2 = % x", d[:2])
	}
	if d[2] != 0xfd || d[5] != 0xff {
		t.Errorf("word -3 = % x", d[2:6])
	}
}

// TestRegisterFileChecked: an operand from the wrong register file is an
// error, not a silent switch to the same-numbered register of the other
// file (Encode keeps only the register number). Pseudo-instructions are
// checked on their expansion.
func TestRegisterFileChecked(t *testing.T) {
	cases := []struct {
		src string
		ok  bool
	}{
		{"fadd.d a0, a1, a2", false},
		{"fadd.d fa0, fa1, fa2", true},
		{"ld fa0, 0(fa1)", false},
		{"ld a0, 0(a1)", true},
		{"fld fa0, 0(fa1)", false},
		{"fld fa0, 0(a1)", true},
		{"fsd a0, 8(sp)", false},
		{"fsd fa0, 8(sp)", true},
		{"fcvt.w.d fa0, a1", false},
		{"fcvt.w.d a0, fa1", true},
		{"fcvt.d.l a0, fa1", false},
		{"fcvt.d.l fa0, a1", true},
		{"feq.d fa0, fa1, fa2", false},
		{"feq.d a0, fa1, fa2", true},
		{"fmv.x.d fa0, fa1", false},
		{"fmv.x.d a0, fa1", true},
		{"fmv.d.x fa0, fa1", false},
		{"fmv.d.x fa0, a1", true},
		{"fmadd.d fa0, fa1, fa2, a3", false},
		{"fmadd.d fa0, fa1, fa2, fa3", true},
		{"add a0, a1, fa2", false},
		{"fmv.d a0, a1", false},
		{"fmv.d fa0, fa1", true},
		{"mv fa0, a1", false},
		{"mv a0, a1", true},
		{"li fa0, 5", false},
		{"beqz fa0, _start", false},
	}
	for _, c := range cases {
		for _, opts := range []Options{{}, {NoCompress: true}} {
			_, err := Assemble("_start:\n\t"+c.src+"\n", opts)
			if c.ok && err != nil {
				t.Errorf("%q (%+v): %v", c.src, opts, err)
			}
			if !c.ok && (err == nil || !strings.Contains(err.Error(), "register, not")) {
				t.Errorf("%q (%+v) assembled (err %v); want a register-file error", c.src, opts, err)
			}
		}
	}
}
