package riscv

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the C (compressed) extension as one table, cForms:
// each row is one 16-bit form with its fixed bits, the base instruction it
// expands to, the shape of each register operand and its immediate's
// scattering. decodeCompressed expands a halfword through the first row
// that matches it, and Compress, used by the assembler and the patcher
// when the mutatee's extension set permits compressed instructions, packs
// an instruction into the first row of its mnemonic that holds it.
//
// Per Section 3.1.2 of the paper, compressed instructions matter to the
// instrumenter in two ways: they halve code size (so functions can be as
// short as 2 bytes), and the compressed jump c.j only reaches [-2^12, 2^12)
// bytes, forcing a fall-back ladder when patching jumps to trampolines.

// CJMin and CJMax bound the byte offsets reachable by the compressed jump
// c.j: an 11-bit signed, 2-byte-aligned offset, i.e. [-2048, 2046].
const (
	CJMin = -(1 << 11)
	CJMax = (1 << 11) - 2
)

// JALRange is the reach of the standard jal: offsets in [-2^20, 2^20).
const (
	JALMin = -(1 << 20)
	JALMax = (1 << 20) - 1
)

// cReg is the shape of a compressed form's register operand: a field of
// width bits at bit at that holds the register's offset from base (5 bits:
// any x or f register; 3 bits: x8-x15 or f8-f15), or, with width 0, the
// fixed register base (RegNone when the form has no such operand). An
// operand with the same field as rd is tied to it.
type cReg struct {
	at, width uint8
	base      Reg
}

var (
	noReg = cReg{base: RegNone}
	fixX0 = cReg{base: X0}
	fixRA = cReg{base: RegRA}
	fixSP = cReg{base: RegSP}
	xAt11 = cReg{7, 5, X0} // bits 11:7
	fAt11 = cReg{7, 5, F0}
	xAt6  = cReg{2, 5, X0} // bits 6:2
	fAt6  = cReg{2, 5, F0}
	xpAt9 = cReg{7, 3, X8} // x8-x15 in bits 9:7
	xpAt4 = cReg{2, 3, X8} // bits 4:2
	fpAt4 = cReg{2, 3, F8}
)

// unpack returns the register in s's field of h. Here and below, masked
// shift counts let the compiler drop its checks for oversized shifts,
// which cost decoding a third of its time.
func (s cReg) unpack(h uint32) Reg { return s.base + Reg(h>>(s.at&31)&(1<<(s.width&31)-1)) }

// gives reports whether h holds r in s's field, or s is no operand.
func (s cReg) gives(h uint32, r Reg) bool { return s == noReg || s.unpack(h) == r }

// pack places r in s's field; a register the field cannot hold packs as
// some other one, which unpack then tells apart.
func (s cReg) pack(r Reg) uint32 { return uint32(r-s.base) << (s.at & 31) & s.field() }

// field returns the bits of s's field.
func (s cReg) field() uint32 { return (1<<(s.width&31) - 1) << (s.at & 31) }

// cCond is a set of conditions on a form's expanded operands.
type cCond uint8

const (
	zeroImm cCond = 1 << iota // the immediate is 0
	rdX0                      // rd is x0
	rdSP                      // rd is sp
	rs1X0                     // rs1 is x0
	rs2X0                     // rs2 is x0
)

func (c cCond) holds(rd, rs1, rs2 Reg, imm int64) bool {
	return c&zeroImm != 0 && imm == 0 || c&rdX0 != 0 && rd == X0 || c&rdSP != 0 && rd == RegSP ||
		c&rs1X0 != 0 && rs1 == X0 || c&rs2X0 != 0 && rs2 == X0
}

// Immediate signedness, for cForm.signed.
const (
	zext = false
	sext = true
)

// cForm is one compressed form.
type cForm struct {
	bits         string // bits 15:0: '0' and '1' fixed, '.' an operand's
	mn           Mnemonic
	rd, rs1, rs2 cReg
	// imm is the immediate's scattering as the spec writes it: "12:5[5:4|9:6|2|3]"
	// says bits 12:5 hold imm[5:4], imm[9:6], imm[2] and imm[3] in that order.
	imm    string
	signed bool
	// A reserved halfword is illegal; a HINT decodes, but Compress never
	// emits one.
	reserved, hint cCond
}

// cRow is a cForm with what init derives from it.
type cRow struct {
	cForm
	mask, match uint32
	segs        []cSeg
	signShift   uint8 // 64 - the width of a signed immediate; 0 if unsigned
}

// cSeg is one run of an immediate's scattering: imm[to+width-1:to] sits
// in bits [from+width-1:from].
type cSeg struct{ from, to, width uint8 }

// cForms holds every RV64C form in quadrant, then funct3 order. Among the
// rows of one mnemonic, table order is Compress's preference: addi sp, sp,
// 16 takes c.addi, not c.addi16sp. c.nop has a row of its own because
// Compress emits it, while c.addi with a zero immediate is a HINT. c.lui's
// immediate is the one lui carries, nzimm[17:12] in the spec.
var cForms = [...]cForm{
	{"000...........00", MnADDI, xpAt4, fixSP, noReg, "12:5[5:4|9:6|2|3]", zext, zeroImm, 0}, // c.addi4spn
	{"001...........00", MnFLD, fpAt4, xpAt9, noReg, "12:10[5:3] 6:5[7:6]", zext, 0, 0},      // c.fld
	{"010...........00", MnLW, xpAt4, xpAt9, noReg, "12:10[5:3] 6:5[2|6]", zext, 0, 0},       // c.lw
	{"011...........00", MnLD, xpAt4, xpAt9, noReg, "12:10[5:3] 6:5[7:6]", zext, 0, 0},       // c.ld
	{"101...........00", MnFSD, noReg, xpAt9, fpAt4, "12:10[5:3] 6:5[7:6]", zext, 0, 0},      // c.fsd
	{"110...........00", MnSW, noReg, xpAt9, xpAt4, "12:10[5:3] 6:5[2|6]", zext, 0, 0},       // c.sw
	{"111...........00", MnSD, noReg, xpAt9, xpAt4, "12:10[5:3] 6:5[7:6]", zext, 0, 0},       // c.sd

	{"0000000000000001", MnADDI, fixX0, fixX0, noReg, "", zext, 0, 0},                              // c.nop
	{"000...........01", MnADDI, xAt11, xAt11, noReg, "12[5] 6:2[4:0]", sext, 0, zeroImm | rdX0},   // c.addi
	{"001...........01", MnADDIW, xAt11, xAt11, noReg, "12[5] 6:2[4:0]", sext, rdX0, 0},            // c.addiw
	{"010...........01", MnADDI, xAt11, fixX0, noReg, "12[5] 6:2[4:0]", sext, 0, rdX0},             // c.li
	{"011.00010.....01", MnADDI, fixSP, fixSP, noReg, "12[9] 6:2[4|6|8:7|5]", sext, zeroImm, 0},    // c.addi16sp
	{"011...........01", MnLUI, xAt11, noReg, noReg, "12[5] 6:2[4:0]", sext, zeroImm | rdSP, rdX0}, // c.lui
	{"100.00........01", MnSRLI, xpAt9, xpAt9, noReg, "12[5] 6:2[4:0]", zext, 0, zeroImm},          // c.srli
	{"100.01........01", MnSRAI, xpAt9, xpAt9, noReg, "12[5] 6:2[4:0]", zext, 0, zeroImm},          // c.srai
	{"100.10........01", MnANDI, xpAt9, xpAt9, noReg, "12[5] 6:2[4:0]", sext, 0, 0},                // c.andi
	{"100011...00...01", MnSUB, xpAt9, xpAt9, xpAt4, "", zext, 0, 0},                               // c.sub
	{"100011...01...01", MnXOR, xpAt9, xpAt9, xpAt4, "", zext, 0, 0},                               // c.xor
	{"100011...10...01", MnOR, xpAt9, xpAt9, xpAt4, "", zext, 0, 0},                                // c.or
	{"100011...11...01", MnAND, xpAt9, xpAt9, xpAt4, "", zext, 0, 0},                               // c.and
	{"100111...00...01", MnSUBW, xpAt9, xpAt9, xpAt4, "", zext, 0, 0},                              // c.subw
	{"100111...01...01", MnADDW, xpAt9, xpAt9, xpAt4, "", zext, 0, 0},                              // c.addw
	{"101...........01", MnJAL, fixX0, noReg, noReg, "12:2[11|4|9:8|10|6|7|3:1|5]", sext, 0, 0},    // c.j
	{"110...........01", MnBEQ, noReg, xpAt9, fixX0, "12:10[8|4:3] 6:2[7:6|2:1|5]", sext, 0, 0},    // c.beqz
	{"111...........01", MnBNE, noReg, xpAt9, fixX0, "12:10[8|4:3] 6:2[7:6|2:1|5]", sext, 0, 0},    // c.bnez

	{"000...........10", MnSLLI, xAt11, xAt11, noReg, "12[5] 6:2[4:0]", zext, 0, zeroImm | rdX0}, // c.slli
	{"001...........10", MnFLD, fAt11, fixSP, noReg, "12[5] 6:2[4:3|8:6]", zext, 0, 0},           // c.fldsp
	{"010...........10", MnLW, xAt11, fixSP, noReg, "12[5] 6:2[4:2|7:6]", zext, rdX0, 0},         // c.lwsp
	{"011...........10", MnLD, xAt11, fixSP, noReg, "12[5] 6:2[4:3|8:6]", zext, rdX0, 0},         // c.ldsp
	{"1000.....0000010", MnJALR, fixX0, xAt11, noReg, "", zext, rs1X0, 0},                        // c.jr
	{"1000..........10", MnADD, xAt11, fixX0, xAt6, "", zext, rs2X0, rdX0},                       // c.mv
	{"1001000000000010", MnEBREAK, noReg, noReg, noReg, "", zext, 0, 0},                          // c.ebreak
	{"1001.....0000010", MnJALR, fixRA, xAt11, noReg, "", zext, rs1X0, 0},                        // c.jalr
	{"1001..........10", MnADD, xAt11, xAt11, xAt6, "", zext, rs2X0, rdX0},                       // c.add
	{"101...........10", MnFSD, noReg, fixSP, fAt6, "12:7[5:3|8:6]", zext, 0, 0},                 // c.fsdsp
	{"110...........10", MnSW, noReg, fixSP, xAt6, "12:7[5:2|7:6]", zext, 0, 0},                  // c.swsp
	{"111...........10", MnSD, noReg, fixSP, xAt6, "12:7[5:3|8:6]", zext, 0, 0},                  // c.sdsp
}

var (
	cRows  [len(cForms)]cRow
	cIndex [32][]cRow            // the rows under each quadrant<<3 | funct3
	cByMn  [numMnemonics][]*cRow // the rows of each mnemonic, in table order
)

func cKey(h uint32) uint32 { return h&3<<3 | h>>13 }

func init() {
	for k := range cRows {
		f := &cRows[k]
		f.cForm = cForms[k]
		if len(f.bits) != 16 {
			panic(fmt.Sprintf("riscv: compressed form %d (%v): bits %q", k, f.mn, f.bits))
		}
		for b, c := range f.bits {
			if c != '.' {
				f.mask |= 1 << (15 - b)
				f.match |= uint32(c-'0') << (15 - b)
			}
		}
		f.segs = parseScattering(f.imm)
		operands := f.rd.field() | f.rs1.field() | f.rs2.field()
		top := uint8(0)
		for _, s := range f.segs {
			operands |= (1<<s.width - 1) << s.from
			top = max(top, s.to+s.width)
		}
		if f.signed {
			f.signShift = 64 - top
		}
		if f.mask|operands != 0xffff || f.mask&operands != 0 ||
			k > 0 && cKey(f.match) < cKey(cRows[k-1].match) {
			panic(fmt.Sprintf("riscv: compressed form %d (%v) is malformed or out of order", k, f.mn))
		}
		rows := &cIndex[cKey(f.match)]
		if len(*rows) == 0 {
			*rows = cRows[k:k]
		}
		*rows = (*rows)[:len(*rows)+1]
		cByMn[f.mn] = append(cByMn[f.mn], f)
	}
}

// parseScattering turns cForm.imm's notation into runs.
func parseScattering(s string) (segs []cSeg) {
	bit := func(v string) uint8 {
		n, err := strconv.ParseUint(v, 10, 8)
		if err != nil {
			panic(fmt.Sprintf("riscv: scattering %q: %v", s, err))
		}
		return uint8(n)
	}
	span := func(v string) (hi, lo uint8) {
		h, l, ok := strings.Cut(v, ":")
		if !ok {
			l = h
		}
		return bit(h), bit(l)
	}
	for _, group := range strings.Fields(s) {
		field, list, _ := strings.Cut(strings.TrimSuffix(group, "]"), "[")
		hi, lo := span(field)
		at := hi + 1
		for _, run := range strings.Split(list, "|") {
			ihi, ilo := span(run)
			at -= ihi - ilo + 1
			segs = append(segs, cSeg{from: at, to: ilo, width: ihi - ilo + 1})
		}
		if at != lo {
			panic(fmt.Sprintf("riscv: scattering %q does not fill bits %s", s, field))
		}
	}
	return segs
}

// immOf returns the immediate halfword h holds in f's form.
func (f *cRow) immOf(h uint32) int64 {
	var v uint64
	for _, s := range f.segs {
		v |= uint64(h>>(s.from&31)&(1<<(s.width&31)-1)) << (s.to & 63)
	}
	sh := f.signShift & 63
	return int64(v) << sh >> sh
}

func decodeCompressed(h uint16, addr uint64) (Inst, error) {
	w := uint32(h)
	rows := cIndex[cKey(w)]
	for k := range rows {
		if f := &rows[k]; w&f.mask == f.match {
			rd, rs1, rs2, imm := f.rd.unpack(w), f.rs1.unpack(w), f.rs2.unpack(w), f.immOf(w)
			if !f.reserved.holds(rd, rs1, rs2, imm) {
				return Inst{Addr: addr, Imm: imm, Len: 2, Raw: w, Mn: f.mn,
					Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: RegNone, Compressed: true}, nil
			}
		}
	}
	return Inst{Addr: addr, Len: 2, Raw: w, Rd: RegNone, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone, Compressed: true},
		fmt.Errorf("%w: compressed 0x%04x at 0x%x", ErrIllegal, h, addr)
}

// Compress attempts to find a 16-bit encoding for the instruction. It
// returns the halfword and true on success. The caller is responsible for
// checking that the target extension set includes C.
//
// A row holds i when its expansion of the packed halfword gives i back:
// that one check covers tied and fixed registers, register files and the
// immediate's range and alignment.
func Compress(i Inst) (uint16, bool) {
	if i.Mn >= numMnemonics {
		return 0, false
	}
	for _, f := range cByMn[i.Mn] {
		h := f.match | f.rd.pack(i.Rd) | f.rs1.pack(i.Rs1) | f.rs2.pack(i.Rs2)
		if !f.rd.gives(h, i.Rd) || !f.rs1.gives(h, i.Rs1) || !f.rs2.gives(h, i.Rs2) ||
			(f.reserved|f.hint).holds(i.Rd, i.Rs1, i.Rs2, i.Imm) {
			continue
		}
		for _, s := range f.segs {
			h |= uint32(i.Imm>>(s.to&63)) & (1<<(s.width&31) - 1) << (s.from & 31)
		}
		if f.immOf(h) == i.Imm {
			return uint16(h), true
		}
	}
	return 0, false
}
