package riscv

import (
	"fmt"
	"strings"
)

// Inst is a decoded (or to-be-encoded) RISC-V instruction. Compressed
// instructions are represented by their 32-bit expansion with Len == 2 and
// Compressed == true, so every consumer sees one uniform instruction model.
//
// Operand field usage by instruction shape:
//
//	loads            Rd, Rs1 (base), Imm (offset)
//	stores           Rs2 (source), Rs1 (base), Imm (offset)
//	branches         Rs1, Rs2, Imm (byte offset from Addr)
//	jal              Rd (link), Imm (byte offset from Addr)
//	jalr             Rd (link), Rs1 (target base), Imm (offset)
//	lui/auipc        Rd, Imm (the 20-bit immediate as written in assembly,
//	                 i.e. the value that lands in bits 31:12)
//	reg-reg arith    Rd, Rs1, Rs2 (and Rs3 for fused multiply-add)
//	reg-imm arith    Rd, Rs1, Imm
//	csr              Rd, Rs1 (or zimm in Imm for the *I forms), CSR
//	amo              Rd, Rs1 (address), Rs2 (source), Aq, Rl
//
// Fields are ordered widest first so the struct packs into 40 bytes with no
// padding (TestInstSize); the parser and the emulator's decode cache hold
// one per decoded instruction.
type Inst struct {
	Addr uint64 // address the instruction was decoded at
	Imm  int64
	Len  int    // encoded length in bytes: 2 or 4
	Raw  uint32 // raw encoding (low 16 bits for compressed)

	Mn  Mnemonic
	CSR uint16 // CSR address for Zicsr instructions

	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Rs3 Reg

	RM     uint8 // rounding mode field for floating-point operations
	Aq, Rl bool  // acquire/release bits for AMO instructions

	Compressed bool // true if decoded from a 16-bit RVC encoding
}

// RMDyn is the "dynamic" rounding-mode selector (use the frm CSR).
const RMDyn uint8 = 0b111

// Valid reports whether the instruction decoded successfully.
func (i Inst) Valid() bool { return i.Mn != MnInvalid }

// Cat returns the structural category of the instruction.
func (i Inst) Cat() Category { return i.Mn.Cat() }

// Size returns the encoded length in bytes (2 for compressed, else 4).
func (i Inst) Size() uint64 {
	if i.Len == 2 {
		return 2
	}
	return 4
}

// Next returns the address of the instruction that follows sequentially.
func (i Inst) Next() uint64 { return i.Addr + i.Size() }

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool { return i.Cat() == CatBranch }

// IsJAL reports whether the instruction is jal (pc-relative jump-and-link).
func (i Inst) IsJAL() bool { return i.Mn == MnJAL }

// IsJALR reports whether the instruction is jalr (indirect jump-and-link).
func (i Inst) IsJALR() bool { return i.Mn == MnJALR }

// IsControlFlow reports whether the instruction can redirect execution.
func (i Inst) IsControlFlow() bool {
	switch i.Cat() {
	case CatBranch, CatJAL, CatJALR:
		return true
	}
	return i.Mn == MnECALL || i.Mn == MnEBREAK
}

// Target returns the statically-known control transfer target, if any.
// Conditional branches and jal have pc-relative targets; jalr does not
// (resolving it is the parser's job, via backward slicing).
func (i Inst) Target() (uint64, bool) {
	switch i.Cat() {
	case CatBranch, CatJAL:
		return i.Addr + uint64(i.Imm), true
	}
	return 0, false
}

// IsLoad reports whether the instruction reads memory (loads and the read
// half of AMOs are handled separately by MemAccess).
func (i Inst) IsLoad() bool { return i.Cat() == CatLoad }

// IsStore reports whether the instruction writes memory.
func (i Inst) IsStore() bool { return i.Cat() == CatStore }

// MemWidth returns the width in bytes of the instruction's memory access,
// or 0 if it does not access memory.
func (i Inst) MemWidth() int {
	switch i.Mn {
	case MnLB, MnLBU, MnSB:
		return 1
	case MnLH, MnLHU, MnSH:
		return 2
	case MnLW, MnLWU, MnSW, MnFLW, MnFSW,
		MnLRW, MnSCW, MnAMOSWAPW, MnAMOADDW, MnAMOXORW, MnAMOANDW,
		MnAMOORW, MnAMOMINW, MnAMOMAXW, MnAMOMINUW, MnAMOMAXUW:
		return 4
	case MnLD, MnSD, MnFLD, MnFSD,
		MnLRD, MnSCD, MnAMOSWAPD, MnAMOADDD, MnAMOXORD, MnAMOANDD,
		MnAMOORD, MnAMOMIND, MnAMOMAXD, MnAMOMINUD, MnAMOMAXUD:
		return 8
	}
	return 0
}

// String disassembles the instruction in conventional assembly syntax.
func (i Inst) String() string {
	if !i.Valid() {
		return fmt.Sprintf(".insn 0x%x", i.Raw)
	}
	name := i.Mn.String()
	switch i.Mn {
	case MnECALL, MnEBREAK, MnFENCEI:
		return name
	case MnFENCE:
		return name
	case MnLUI, MnAUIPC:
		return fmt.Sprintf("%s %s, 0x%x", name, i.Rd, uint32(i.Imm)&0xfffff)
	case MnJAL:
		return fmt.Sprintf("%s %s, %d", name, i.Rd, i.Imm)
	case MnJALR:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rd, i.Imm, i.Rs1)
	case MnBEQ, MnBNE, MnBLT, MnBGE, MnBLTU, MnBGEU:
		return fmt.Sprintf("%s %s, %s, %d", name, i.Rs1, i.Rs2, i.Imm)
	case MnCSRRW, MnCSRRS, MnCSRRC:
		return fmt.Sprintf("%s %s, 0x%x, %s", name, i.Rd, i.CSR, i.Rs1)
	case MnCSRRWI, MnCSRRSI, MnCSRRCI:
		return fmt.Sprintf("%s %s, 0x%x, %d", name, i.Rd, i.CSR, i.Imm)
	}
	switch i.Cat() {
	case CatLoad:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rd, i.Imm, i.Rs1)
	case CatStore:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rs2, i.Imm, i.Rs1)
	case CatAMO:
		suffix := ""
		if i.Aq {
			suffix += ".aq"
		}
		if i.Rl {
			suffix += ".rl"
		}
		if i.Mn == MnLRW || i.Mn == MnLRD {
			return fmt.Sprintf("%s%s %s, (%s)", name, suffix, i.Rd, i.Rs1)
		}
		return fmt.Sprintf("%s%s %s, %s, (%s)", name, suffix, i.Rd, i.Rs2, i.Rs1)
	}
	if i.Rs3 != RegNone && i.Rs3 != 0 && isFMA(i.Mn) {
		return fmt.Sprintf("%s %s, %s, %s, %s", name, i.Rd, i.Rs1, i.Rs2, i.Rs3)
	}
	if spec, ok := lookupEnc(i.Mn); ok {
		switch spec.form {
		case formI, formIShift, formIShiftW:
			return fmt.Sprintf("%s %s, %s, %d", name, i.Rd, i.Rs1, i.Imm)
		case formR:
			if spec.rs2fixed {
				return fmt.Sprintf("%s %s, %s", name, i.Rd, i.Rs1)
			}
			return fmt.Sprintf("%s %s, %s, %s", name, i.Rd, i.Rs1, i.Rs2)
		}
	}
	// Fallback: best-effort generic rendering.
	parts := []string{}
	if i.Rd != RegNone {
		parts = append(parts, i.Rd.String())
	}
	if i.Rs1 != RegNone {
		parts = append(parts, i.Rs1.String())
	}
	if i.Rs2 != RegNone {
		parts = append(parts, i.Rs2.String())
	}
	return name + " " + strings.Join(parts, ", ")
}

func isFMA(m Mnemonic) bool {
	switch m {
	case MnFMADDS, MnFMSUBS, MnFNMSUBS, MnFNMADDS,
		MnFMADDD, MnFMSUBD, MnFNMSUBD, MnFNMADDD:
		return true
	}
	return false
}

// IsFMA reports whether the mnemonic is a fused multiply-add (the only
// four-operand instruction shape).
func IsFMA(m Mnemonic) bool { return isFMA(m) }
