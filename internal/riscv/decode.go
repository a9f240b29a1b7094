package riscv

import (
	"errors"
	"fmt"
)

// Decoding errors.
var (
	ErrTruncated = errors.New("riscv: truncated instruction")
	ErrIllegal   = errors.New("riscv: illegal instruction")
)

// Decode decodes one instruction from b, which must hold the bytes at
// address addr. It handles both 32-bit standard encodings and 16-bit
// compressed encodings (expanding the latter to their base-mnemonic form
// with Compressed == true and Len == 2).
func Decode(b []byte, addr uint64) (Inst, error) {
	if len(b) < 2 {
		return Inst{Addr: addr}, ErrTruncated
	}
	lo := uint32(b[0]) | uint32(b[1])<<8
	if lo&3 != 3 {
		return decodeCompressed(uint16(lo), addr)
	}
	if len(b) < 4 {
		return Inst{Addr: addr, Raw: lo}, ErrTruncated
	}
	w := lo | uint32(b[2])<<16 | uint32(b[3])<<24
	return decode32(w, addr)
}

// field extractors for the 32-bit formats
func bits(w uint32, hi, lo uint) uint32 { return (w >> lo) & ((1 << (hi - lo + 1)) - 1) }

func immI(w uint32) int64 { return int64(int32(w) >> 20) }

func immS(w uint32) int64 {
	return int64(int32(bits(w, 31, 25)<<5|bits(w, 11, 7)) << 20 >> 20)
}

func immB(w uint32) int64 {
	v := bits(w, 31, 31)<<12 | bits(w, 7, 7)<<11 | bits(w, 30, 25)<<5 | bits(w, 11, 8)<<1
	return int64(int32(v) << 19 >> 19)
}

func immU(w uint32) int64 { return int64(int32(w) >> 12) }

func immJ(w uint32) int64 {
	v := bits(w, 31, 31)<<20 | bits(w, 19, 12)<<12 | bits(w, 20, 20)<<11 | bits(w, 30, 21)<<1
	return int64(int32(v) << 11 >> 11)
}

// decodeRow is one encTable row as the decoder sees it: the bits that
// identify the instruction (mask/match) and how to unpack the rest.
type decodeRow struct {
	mask, match uint32
	mn          Mnemonic
	form        form
	float       uint8 // operand slots in the float register file (floatOperands)
	hasRM       bool
	rs2fixed    bool
}

// decodeIndex holds the rows of every 32-bit encoding, keyed by funct3<<7
// | opcode; a row whose funct3 field is free sits under all 8 of its keys.
type decodeIndex [1 << 10][]decodeRow

// decIndex indexes encTable's base rows; extension modules add theirs from
// init through defineInst.
var decIndex = func() *decodeIndex {
	x := new(decodeIndex)
	for mn, spec := range encTable {
		if spec.form != formNone {
			x.add(Mnemonic(mn), spec)
		}
	}
	return x
}()

// defineInst installs one extension instruction: its mnemonic metadata,
// its encTable row and that row's decoder index entry.
func defineInst(mn Mnemonic, name string, ext ExtSet, cat Category, spec encSpec) {
	registerMnemonic(mn, name, ext, cat)
	encTable[mn] = spec
	decIndex.add(mn, spec)
}

// fixedBits returns the bits of a 32-bit word that identify spec's
// instruction and their values.
func fixedBits(spec encSpec) (mask, match uint32) {
	mask, match = 0x7f, spec.opcode
	if spec.form != formU && spec.form != formJ && !spec.hasRM {
		mask, match = mask|7<<12, match|spec.f3<<12
	}
	switch spec.form {
	case formR:
		mask, match = mask|0x7f<<25, match|spec.f7<<25
	case formR4:
		mask, match = mask|3<<25, match|spec.f7<<25
	case formIShift:
		mask, match = mask|0x3f<<26, match|spec.f7<<26
	case formIShiftW:
		mask, match = mask|0x7f<<25, match|spec.f7<<25
	case formAMO:
		mask, match = mask|0x1f<<27, match|spec.f7>>2<<27
	case formSys:
		mask, match = 0xffffffff, match|spec.sysImm<<20
	}
	if spec.rs2fixed {
		mask, match = mask|0x1f<<20, match|spec.rs2val<<20
	}
	return mask, match
}

// add indexes mn's row. It panics if some word would match both it and a
// row already indexed.
func (x *decodeIndex) add(mn Mnemonic, spec encSpec) {
	mask, match := fixedBits(spec)
	row := decodeRow{mask: mask, match: match, mn: mn, form: spec.form,
		float: floatOperands(spec.opcode, spec.f7), hasRM: spec.hasRM, rs2fixed: spec.rs2fixed}
	var keys []uint32
	for f3 := uint32(0); f3 < 8; f3++ {
		if mask&(7<<12) == 0 || f3 == spec.f3 {
			keys = append(keys, f3<<7|spec.opcode)
		}
	}
	for _, k := range keys {
		for _, r := range x[k] {
			if (r.match^match)&r.mask&mask == 0 {
				panic(fmt.Sprintf("riscv: %v encoding collides with %v", mn, r.mn))
			}
		}
	}
	for _, k := range keys {
		x[k] = append(x[k], row)
	}
}

// Operand slots, as bits of floatOperands' result.
const (
	slotRd = 1 << iota
	slotRs1
	slotRs2
	slotRs3
)

// floatOperands returns the operand slots that name floating-point
// registers in an encoding with the given opcode and funct7; every other
// slot names an integer register.
func floatOperands(opcode, f7 uint32) uint8 {
	switch opcode {
	case opLoadFP:
		return slotRd
	case opStorFP:
		return slotRs2
	case opFMADD, opFMSUB, opFNMSUB, opFNMADD:
		return slotRd | slotRs1 | slotRs2 | slotRs3
	case opFP:
		switch f7 >> 2 {
		case 0b11000, 0b11100: // fcvt.{w,l}[u].*, fmv.x.*, fclass.*
			return slotRs1
		case 0b11010, 0b11110: // fcvt.*.{w,l}[u], fmv.*.x
			return slotRd
		case 0b10100: // feq, flt, fle
			return slotRs1 | slotRs2
		}
		return slotRd | slotRs1 | slotRs2
	}
	return 0
}

// operandReg returns register n of the file that slot names in float.
func operandReg(n uint32, float, slot uint8) Reg {
	if float&slot != 0 {
		return FReg(n)
	}
	return XReg(n)
}

func decode32(w uint32, addr uint64) (Inst, error) {
	inst := Inst{
		Addr: addr, Raw: w, Len: 4,
		Rd: RegNone, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone,
	}
	rows := decIndex[w>>5&(7<<7)|w&0x7f]
	var r *decodeRow
	for i := range rows {
		if w&rows[i].mask == rows[i].match {
			r = &rows[i]
			break
		}
	}
	if r == nil {
		return inst, fmt.Errorf("%w: 0x%08x at 0x%x", ErrIllegal, w, addr)
	}
	inst.Mn = r.mn
	rd, rs1, rs2 := bits(w, 11, 7), bits(w, 19, 15), bits(w, 24, 20)
	if r.hasRM {
		inst.RM = uint8(bits(w, 14, 12))
	}
	switch r.form {
	case formU:
		inst.Rd, inst.Imm = XReg(rd), immU(w)
	case formJ:
		inst.Rd, inst.Imm = XReg(rd), immJ(w)
	case formI:
		inst.Rd, inst.Rs1, inst.Imm = operandReg(rd, r.float, slotRd), XReg(rs1), immI(w)
	case formIShift:
		inst.Rd, inst.Rs1, inst.Imm = XReg(rd), XReg(rs1), int64(bits(w, 25, 20))
	case formIShiftW:
		inst.Rd, inst.Rs1, inst.Imm = XReg(rd), XReg(rs1), int64(rs2)
	case formS:
		inst.Rs1, inst.Rs2, inst.Imm = XReg(rs1), operandReg(rs2, r.float, slotRs2), immS(w)
	case formB:
		inst.Rs1, inst.Rs2, inst.Imm = XReg(rs1), XReg(rs2), immB(w)
	case formR, formR4, formAMO:
		inst.Rd = operandReg(rd, r.float, slotRd)
		inst.Rs1 = operandReg(rs1, r.float, slotRs1)
		if !r.rs2fixed {
			inst.Rs2 = operandReg(rs2, r.float, slotRs2)
		}
		if r.form == formR4 {
			inst.Rs3 = FReg(bits(w, 31, 27))
		}
		if r.form == formAMO {
			inst.Aq, inst.Rl = bits(w, 26, 26) == 1, bits(w, 25, 25) == 1
		}
	case formCSR:
		inst.Rd, inst.Rs1, inst.CSR = XReg(rd), XReg(rs1), uint16(bits(w, 31, 20))
	case formCSRI:
		inst.Rd, inst.Imm, inst.CSR = XReg(rd), int64(rs1), uint16(bits(w, 31, 20))
	case formFence:
		// fence carries fm|pred|succ; fence.i leaves its imm field unused.
		if r.mn == MnFENCE {
			inst.Imm = int64(bits(w, 31, 20))
		}
	}
	return inst, nil
}
