package riscv

import "fmt"

// form enumerates the 32-bit encoding layouts.
type form uint8

const (
	formNone    form = iota // no 32-bit encoding: the zero value of an encTable slot
	formR                   // funct7 | rs2 | rs1 | funct3 | rd | opcode
	formR4                  // rs3 | fmt | rs2 | rs1 | rm | rd | opcode
	formI                   // imm[11:0] | rs1 | funct3 | rd | opcode
	formIShift              // shift-immediate variant of I (6-bit shamt)
	formIShiftW             // shift-immediate variant of I (5-bit shamt)
	formS                   // imm[11:5] | rs2 | rs1 | funct3 | imm[4:0] | opcode
	formB                   // branch offset scattering of S
	formU                   // imm[31:12] | rd | opcode
	formJ                   // jal offset scattering of U
	formCSR                 // csr | rs1 | funct3 | rd | opcode
	formCSRI                // csr | zimm | funct3 | rd | opcode
	formFence               // fm/pred/succ in imm[11:0]
	formSys                 // ecall/ebreak: fixed 12-bit selector
	formAMO                 // funct5 | aq | rl | rs2 | rs1 | funct3 | rd | opcode
)

// encSpec describes how one mnemonic packs into 32 bits.
type encSpec struct {
	form     form
	opcode   uint32
	f3       uint32
	f7       uint32 // funct7 for R; top bits for shifts; funct5<<2 for AMO
	rs2fixed bool   // rs2 field is a fixed selector (fcvt/fsqrt/fmv/fclass)
	rs2val   uint32
	hasRM    bool // funct3 field carries the rounding mode
	sysImm   uint32
}

const (
	opLUI    = 0b0110111
	opAUIPC  = 0b0010111
	opJAL    = 0b1101111
	opJALR   = 0b1100111
	opBranch = 0b1100011
	opLoad   = 0b0000011
	opStore  = 0b0100011
	opOpImm  = 0b0010011
	opOp     = 0b0110011
	opOpImmW = 0b0011011
	opOpW    = 0b0111011
	opMisc   = 0b0001111
	opSystem = 0b1110011
	opAMO    = 0b0101111
	opLoadFP = 0b0000111
	opStorFP = 0b0100111
	opFP     = 0b1010011
	opFMADD  = 0b1000011
	opFMSUB  = 0b1000111
	opFNMSUB = 0b1001011
	opFNMADD = 0b1001111
)

// encTable holds each mnemonic's encoding, indexed by mnemonic so Encode
// reads it without hashing; a slot whose form is formNone has none. It is
// the only description of a 32-bit encoding: decode32 matches words
// against an index derived from it (decode.go). Extension modules fill
// their slots from init through defineInst (see rva23.go).
var encTable = [numMnemonics]encSpec{
	MnLUI:   {form: formU, opcode: opLUI},
	MnAUIPC: {form: formU, opcode: opAUIPC},
	MnJAL:   {form: formJ, opcode: opJAL},
	MnJALR:  {form: formI, opcode: opJALR, f3: 0},

	MnBEQ:  {form: formB, opcode: opBranch, f3: 0},
	MnBNE:  {form: formB, opcode: opBranch, f3: 1},
	MnBLT:  {form: formB, opcode: opBranch, f3: 4},
	MnBGE:  {form: formB, opcode: opBranch, f3: 5},
	MnBLTU: {form: formB, opcode: opBranch, f3: 6},
	MnBGEU: {form: formB, opcode: opBranch, f3: 7},

	MnLB:  {form: formI, opcode: opLoad, f3: 0},
	MnLH:  {form: formI, opcode: opLoad, f3: 1},
	MnLW:  {form: formI, opcode: opLoad, f3: 2},
	MnLD:  {form: formI, opcode: opLoad, f3: 3},
	MnLBU: {form: formI, opcode: opLoad, f3: 4},
	MnLHU: {form: formI, opcode: opLoad, f3: 5},
	MnLWU: {form: formI, opcode: opLoad, f3: 6},

	MnSB: {form: formS, opcode: opStore, f3: 0},
	MnSH: {form: formS, opcode: opStore, f3: 1},
	MnSW: {form: formS, opcode: opStore, f3: 2},
	MnSD: {form: formS, opcode: opStore, f3: 3},

	MnADDI:  {form: formI, opcode: opOpImm, f3: 0},
	MnSLTI:  {form: formI, opcode: opOpImm, f3: 2},
	MnSLTIU: {form: formI, opcode: opOpImm, f3: 3},
	MnXORI:  {form: formI, opcode: opOpImm, f3: 4},
	MnORI:   {form: formI, opcode: opOpImm, f3: 6},
	MnANDI:  {form: formI, opcode: opOpImm, f3: 7},
	MnSLLI:  {form: formIShift, opcode: opOpImm, f3: 1, f7: 0b000000},
	MnSRLI:  {form: formIShift, opcode: opOpImm, f3: 5, f7: 0b000000},
	MnSRAI:  {form: formIShift, opcode: opOpImm, f3: 5, f7: 0b010000},

	MnADD:  {form: formR, opcode: opOp, f3: 0, f7: 0},
	MnSUB:  {form: formR, opcode: opOp, f3: 0, f7: 0b0100000},
	MnSLL:  {form: formR, opcode: opOp, f3: 1, f7: 0},
	MnSLT:  {form: formR, opcode: opOp, f3: 2, f7: 0},
	MnSLTU: {form: formR, opcode: opOp, f3: 3, f7: 0},
	MnXOR:  {form: formR, opcode: opOp, f3: 4, f7: 0},
	MnSRL:  {form: formR, opcode: opOp, f3: 5, f7: 0},
	MnSRA:  {form: formR, opcode: opOp, f3: 5, f7: 0b0100000},
	MnOR:   {form: formR, opcode: opOp, f3: 6, f7: 0},
	MnAND:  {form: formR, opcode: opOp, f3: 7, f7: 0},

	MnADDIW: {form: formI, opcode: opOpImmW, f3: 0},
	MnSLLIW: {form: formIShiftW, opcode: opOpImmW, f3: 1, f7: 0},
	MnSRLIW: {form: formIShiftW, opcode: opOpImmW, f3: 5, f7: 0},
	MnSRAIW: {form: formIShiftW, opcode: opOpImmW, f3: 5, f7: 0b0100000},

	MnADDW: {form: formR, opcode: opOpW, f3: 0, f7: 0},
	MnSUBW: {form: formR, opcode: opOpW, f3: 0, f7: 0b0100000},
	MnSLLW: {form: formR, opcode: opOpW, f3: 1, f7: 0},
	MnSRLW: {form: formR, opcode: opOpW, f3: 5, f7: 0},
	MnSRAW: {form: formR, opcode: opOpW, f3: 5, f7: 0b0100000},

	MnFENCE:  {form: formFence, opcode: opMisc, f3: 0},
	MnFENCEI: {form: formFence, opcode: opMisc, f3: 1},

	MnECALL:  {form: formSys, opcode: opSystem, sysImm: 0},
	MnEBREAK: {form: formSys, opcode: opSystem, sysImm: 1},

	MnCSRRW:  {form: formCSR, opcode: opSystem, f3: 1},
	MnCSRRS:  {form: formCSR, opcode: opSystem, f3: 2},
	MnCSRRC:  {form: formCSR, opcode: opSystem, f3: 3},
	MnCSRRWI: {form: formCSRI, opcode: opSystem, f3: 5},
	MnCSRRSI: {form: formCSRI, opcode: opSystem, f3: 6},
	MnCSRRCI: {form: formCSRI, opcode: opSystem, f3: 7},

	MnMUL:    {form: formR, opcode: opOp, f3: 0, f7: 1},
	MnMULH:   {form: formR, opcode: opOp, f3: 1, f7: 1},
	MnMULHSU: {form: formR, opcode: opOp, f3: 2, f7: 1},
	MnMULHU:  {form: formR, opcode: opOp, f3: 3, f7: 1},
	MnDIV:    {form: formR, opcode: opOp, f3: 4, f7: 1},
	MnDIVU:   {form: formR, opcode: opOp, f3: 5, f7: 1},
	MnREM:    {form: formR, opcode: opOp, f3: 6, f7: 1},
	MnREMU:   {form: formR, opcode: opOp, f3: 7, f7: 1},
	MnMULW:   {form: formR, opcode: opOpW, f3: 0, f7: 1},
	MnDIVW:   {form: formR, opcode: opOpW, f3: 4, f7: 1},
	MnDIVUW:  {form: formR, opcode: opOpW, f3: 5, f7: 1},
	MnREMW:   {form: formR, opcode: opOpW, f3: 6, f7: 1},
	MnREMUW:  {form: formR, opcode: opOpW, f3: 7, f7: 1},

	MnLRW:      {form: formAMO, opcode: opAMO, f3: 2, f7: 0b00010 << 2, rs2fixed: true, rs2val: 0},
	MnSCW:      {form: formAMO, opcode: opAMO, f3: 2, f7: 0b00011 << 2},
	MnAMOSWAPW: {form: formAMO, opcode: opAMO, f3: 2, f7: 0b00001 << 2},
	MnAMOADDW:  {form: formAMO, opcode: opAMO, f3: 2, f7: 0b00000 << 2},
	MnAMOXORW:  {form: formAMO, opcode: opAMO, f3: 2, f7: 0b00100 << 2},
	MnAMOANDW:  {form: formAMO, opcode: opAMO, f3: 2, f7: 0b01100 << 2},
	MnAMOORW:   {form: formAMO, opcode: opAMO, f3: 2, f7: 0b01000 << 2},
	MnAMOMINW:  {form: formAMO, opcode: opAMO, f3: 2, f7: 0b10000 << 2},
	MnAMOMAXW:  {form: formAMO, opcode: opAMO, f3: 2, f7: 0b10100 << 2},
	MnAMOMINUW: {form: formAMO, opcode: opAMO, f3: 2, f7: 0b11000 << 2},
	MnAMOMAXUW: {form: formAMO, opcode: opAMO, f3: 2, f7: 0b11100 << 2},
	MnLRD:      {form: formAMO, opcode: opAMO, f3: 3, f7: 0b00010 << 2, rs2fixed: true, rs2val: 0},
	MnSCD:      {form: formAMO, opcode: opAMO, f3: 3, f7: 0b00011 << 2},
	MnAMOSWAPD: {form: formAMO, opcode: opAMO, f3: 3, f7: 0b00001 << 2},
	MnAMOADDD:  {form: formAMO, opcode: opAMO, f3: 3, f7: 0b00000 << 2},
	MnAMOXORD:  {form: formAMO, opcode: opAMO, f3: 3, f7: 0b00100 << 2},
	MnAMOANDD:  {form: formAMO, opcode: opAMO, f3: 3, f7: 0b01100 << 2},
	MnAMOORD:   {form: formAMO, opcode: opAMO, f3: 3, f7: 0b01000 << 2},
	MnAMOMIND:  {form: formAMO, opcode: opAMO, f3: 3, f7: 0b10000 << 2},
	MnAMOMAXD:  {form: formAMO, opcode: opAMO, f3: 3, f7: 0b10100 << 2},
	MnAMOMINUD: {form: formAMO, opcode: opAMO, f3: 3, f7: 0b11000 << 2},
	MnAMOMAXUD: {form: formAMO, opcode: opAMO, f3: 3, f7: 0b11100 << 2},

	MnFLW: {form: formI, opcode: opLoadFP, f3: 2},
	MnFLD: {form: formI, opcode: opLoadFP, f3: 3},
	MnFSW: {form: formS, opcode: opStorFP, f3: 2},
	MnFSD: {form: formS, opcode: opStorFP, f3: 3},

	MnFMADDS:  {form: formR4, opcode: opFMADD, f7: 0b00, hasRM: true},
	MnFMSUBS:  {form: formR4, opcode: opFMSUB, f7: 0b00, hasRM: true},
	MnFNMSUBS: {form: formR4, opcode: opFNMSUB, f7: 0b00, hasRM: true},
	MnFNMADDS: {form: formR4, opcode: opFNMADD, f7: 0b00, hasRM: true},
	MnFMADDD:  {form: formR4, opcode: opFMADD, f7: 0b01, hasRM: true},
	MnFMSUBD:  {form: formR4, opcode: opFMSUB, f7: 0b01, hasRM: true},
	MnFNMSUBD: {form: formR4, opcode: opFNMSUB, f7: 0b01, hasRM: true},
	MnFNMADDD: {form: formR4, opcode: opFNMADD, f7: 0b01, hasRM: true},

	MnFADDS:   {form: formR, opcode: opFP, f7: 0b0000000, hasRM: true},
	MnFSUBS:   {form: formR, opcode: opFP, f7: 0b0000100, hasRM: true},
	MnFMULS:   {form: formR, opcode: opFP, f7: 0b0001000, hasRM: true},
	MnFDIVS:   {form: formR, opcode: opFP, f7: 0b0001100, hasRM: true},
	MnFSQRTS:  {form: formR, opcode: opFP, f7: 0b0101100, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFSGNJS:  {form: formR, opcode: opFP, f7: 0b0010000, f3: 0},
	MnFSGNJNS: {form: formR, opcode: opFP, f7: 0b0010000, f3: 1},
	MnFSGNJXS: {form: formR, opcode: opFP, f7: 0b0010000, f3: 2},
	MnFMINS:   {form: formR, opcode: opFP, f7: 0b0010100, f3: 0},
	MnFMAXS:   {form: formR, opcode: opFP, f7: 0b0010100, f3: 1},
	MnFCVTWS:  {form: formR, opcode: opFP, f7: 0b1100000, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFCVTWUS: {form: formR, opcode: opFP, f7: 0b1100000, hasRM: true, rs2fixed: true, rs2val: 1},
	MnFCVTLS:  {form: formR, opcode: opFP, f7: 0b1100000, hasRM: true, rs2fixed: true, rs2val: 2},
	MnFCVTLUS: {form: formR, opcode: opFP, f7: 0b1100000, hasRM: true, rs2fixed: true, rs2val: 3},
	MnFMVXW:   {form: formR, opcode: opFP, f7: 0b1110000, f3: 0, rs2fixed: true, rs2val: 0},
	MnFCLASSS: {form: formR, opcode: opFP, f7: 0b1110000, f3: 1, rs2fixed: true, rs2val: 0},
	MnFEQS:    {form: formR, opcode: opFP, f7: 0b1010000, f3: 2},
	MnFLTS:    {form: formR, opcode: opFP, f7: 0b1010000, f3: 1},
	MnFLES:    {form: formR, opcode: opFP, f7: 0b1010000, f3: 0},
	MnFCVTSW:  {form: formR, opcode: opFP, f7: 0b1101000, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFCVTSWU: {form: formR, opcode: opFP, f7: 0b1101000, hasRM: true, rs2fixed: true, rs2val: 1},
	MnFCVTSL:  {form: formR, opcode: opFP, f7: 0b1101000, hasRM: true, rs2fixed: true, rs2val: 2},
	MnFCVTSLU: {form: formR, opcode: opFP, f7: 0b1101000, hasRM: true, rs2fixed: true, rs2val: 3},
	MnFMVWX:   {form: formR, opcode: opFP, f7: 0b1111000, f3: 0, rs2fixed: true, rs2val: 0},

	MnFADDD:   {form: formR, opcode: opFP, f7: 0b0000001, hasRM: true},
	MnFSUBD:   {form: formR, opcode: opFP, f7: 0b0000101, hasRM: true},
	MnFMULD:   {form: formR, opcode: opFP, f7: 0b0001001, hasRM: true},
	MnFDIVD:   {form: formR, opcode: opFP, f7: 0b0001101, hasRM: true},
	MnFSQRTD:  {form: formR, opcode: opFP, f7: 0b0101101, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFSGNJD:  {form: formR, opcode: opFP, f7: 0b0010001, f3: 0},
	MnFSGNJND: {form: formR, opcode: opFP, f7: 0b0010001, f3: 1},
	MnFSGNJXD: {form: formR, opcode: opFP, f7: 0b0010001, f3: 2},
	MnFMIND:   {form: formR, opcode: opFP, f7: 0b0010101, f3: 0},
	MnFMAXD:   {form: formR, opcode: opFP, f7: 0b0010101, f3: 1},
	MnFCVTSD:  {form: formR, opcode: opFP, f7: 0b0100000, hasRM: true, rs2fixed: true, rs2val: 1},
	MnFCVTDS:  {form: formR, opcode: opFP, f7: 0b0100001, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFEQD:    {form: formR, opcode: opFP, f7: 0b1010001, f3: 2},
	MnFLTD:    {form: formR, opcode: opFP, f7: 0b1010001, f3: 1},
	MnFLED:    {form: formR, opcode: opFP, f7: 0b1010001, f3: 0},
	MnFCLASSD: {form: formR, opcode: opFP, f7: 0b1110001, f3: 1, rs2fixed: true, rs2val: 0},
	MnFCVTWD:  {form: formR, opcode: opFP, f7: 0b1100001, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFCVTWUD: {form: formR, opcode: opFP, f7: 0b1100001, hasRM: true, rs2fixed: true, rs2val: 1},
	MnFCVTLD:  {form: formR, opcode: opFP, f7: 0b1100001, hasRM: true, rs2fixed: true, rs2val: 2},
	MnFCVTLUD: {form: formR, opcode: opFP, f7: 0b1100001, hasRM: true, rs2fixed: true, rs2val: 3},
	MnFCVTDW:  {form: formR, opcode: opFP, f7: 0b1101001, hasRM: true, rs2fixed: true, rs2val: 0},
	MnFCVTDWU: {form: formR, opcode: opFP, f7: 0b1101001, hasRM: true, rs2fixed: true, rs2val: 1},
	MnFCVTDL:  {form: formR, opcode: opFP, f7: 0b1101001, hasRM: true, rs2fixed: true, rs2val: 2},
	MnFCVTDLU: {form: formR, opcode: opFP, f7: 0b1101001, hasRM: true, rs2fixed: true, rs2val: 3},
	MnFMVXD:   {form: formR, opcode: opFP, f7: 0b1110001, f3: 0, rs2fixed: true, rs2val: 0},
	MnFMVDX:   {form: formR, opcode: opFP, f7: 0b1111001, f3: 0, rs2fixed: true, rs2val: 0},
}

// UnaryRegForm reports whether the mnemonic takes a single register source
// (its rs2 field is a fixed selector): fsqrt, fcvt, fmv, fclass, lr.
func UnaryRegForm(m Mnemonic) bool {
	spec, ok := lookupEnc(m)
	return ok && spec.rs2fixed
}

// HasRoundingMode reports whether the mnemonic's funct3 field carries a
// floating-point rounding mode.
func HasRoundingMode(m Mnemonic) bool {
	spec, ok := lookupEnc(m)
	return ok && spec.hasRM
}

// CheckRegFiles reports an error if an operand of i names a register
// outside the file its encoding takes (floatOperands): Encode keeps only a
// register's number, so fadd.d a0, a1, a2 would silently become
// fadd.d fa0, fa1, fa2. Absent operands (RegNone) are not checked.
func CheckRegFiles(i Inst) error {
	spec, ok := lookupEnc(i.Mn)
	if !ok {
		return nil
	}
	float := floatOperands(spec.opcode, spec.f7)
	for k, r := range [...]Reg{i.Rd, i.Rs1, i.Rs2, i.Rs3} {
		slot := uint8(1) << k
		if r != RegNone && r != operandReg(r.Num(), float, slot) {
			return fmt.Errorf("riscv: %v %s takes %s register, not %v", i.Mn,
				[...]string{"rd", "rs1", "rs2", "rs3"}[k], [2]string{"an integer", "a float"}[float>>k&1], r)
		}
	}
	return nil
}

// lookupEnc returns the encoding of m, if it has one.
func lookupEnc(m Mnemonic) (encSpec, bool) {
	if m >= numMnemonics {
		return encSpec{}, false
	}
	spec := encTable[m]
	return spec, spec.form != formNone
}

// LookupRoundingMode resolves an assembly rounding-mode name.
func LookupRoundingMode(name string) (uint8, bool) {
	switch name {
	case "rne":
		return 0, true
	case "rtz":
		return 1, true
	case "rdn":
		return 2, true
	case "rup":
		return 3, true
	case "rmm":
		return 4, true
	case "dyn":
		return RMDyn, true
	}
	return 0, false
}

// Encode packs the instruction into its 32-bit machine encoding. It returns
// an error for unknown mnemonics or immediates that do not fit their field.
// Compressed encoding is a separate, optional step: see Compress.
func Encode(i Inst) (uint32, error) {
	spec, ok := lookupEnc(i.Mn)
	if !ok {
		return 0, fmt.Errorf("riscv: cannot encode %v", i.Mn)
	}
	f3 := spec.f3
	if spec.hasRM {
		f3 = uint32(i.RM) & 7
	}
	rs2 := i.Rs2.Num()
	if spec.rs2fixed {
		rs2 = spec.rs2val
	}
	switch spec.form {
	case formR:
		return spec.f7<<25 | rs2<<20 | i.Rs1.Num()<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formR4:
		return i.Rs3.Num()<<27 | spec.f7<<25 | rs2<<20 | i.Rs1.Num()<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formI:
		if i.Imm < -2048 || i.Imm > 2047 {
			return 0, fmt.Errorf("riscv: %v immediate %d out of I-type range [-2048,2047]", i.Mn, i.Imm)
		}
		return uint32(i.Imm&0xfff)<<20 | i.Rs1.Num()<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formIShift:
		if i.Imm < 0 || i.Imm > 63 {
			return 0, fmt.Errorf("riscv: %v shift amount %d out of range [0,63]", i.Mn, i.Imm)
		}
		return spec.f7<<26 | uint32(i.Imm&0x3f)<<20 | i.Rs1.Num()<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formIShiftW:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, fmt.Errorf("riscv: %v shift amount %d out of range [0,31]", i.Mn, i.Imm)
		}
		return spec.f7<<25 | uint32(i.Imm&0x1f)<<20 | i.Rs1.Num()<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formS:
		if i.Imm < -2048 || i.Imm > 2047 {
			return 0, fmt.Errorf("riscv: %v offset %d out of S-type range [-2048,2047]", i.Mn, i.Imm)
		}
		imm := uint32(i.Imm & 0xfff)
		return (imm>>5)<<25 | rs2<<20 | i.Rs1.Num()<<15 | f3<<12 | (imm&0x1f)<<7 | spec.opcode, nil
	case formB:
		if i.Imm < -4096 || i.Imm > 4095 || i.Imm&1 != 0 {
			return 0, fmt.Errorf("riscv: %v branch offset %d out of range or misaligned", i.Mn, i.Imm)
		}
		imm := uint32(i.Imm) & 0x1fff
		return (imm>>12)<<31 | ((imm>>5)&0x3f)<<25 | rs2<<20 | i.Rs1.Num()<<15 |
			f3<<12 | ((imm>>1)&0xf)<<8 | ((imm>>11)&1)<<7 | spec.opcode, nil
	case formU:
		if i.Imm < -(1<<19) || i.Imm >= 1<<20 {
			return 0, fmt.Errorf("riscv: %v immediate %d out of U-type 20-bit range", i.Mn, i.Imm)
		}
		return uint32(i.Imm&0xfffff)<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formJ:
		if i.Imm < -(1<<20) || i.Imm >= 1<<20 || i.Imm&1 != 0 {
			return 0, fmt.Errorf("riscv: jal offset %d out of range [-1MiB,1MiB) or misaligned", i.Imm)
		}
		imm := uint32(i.Imm) & 0x1fffff
		return (imm>>20)<<31 | ((imm>>1)&0x3ff)<<21 | ((imm>>11)&1)<<20 |
			((imm>>12)&0xff)<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formCSR:
		return uint32(i.CSR)<<20 | i.Rs1.Num()<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formCSRI:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, fmt.Errorf("riscv: %v zimm %d out of range [0,31]", i.Mn, i.Imm)
		}
		return uint32(i.CSR)<<20 | uint32(i.Imm&0x1f)<<15 | f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	case formFence:
		// For fence, Imm carries fm|pred|succ (0x0ff = fence iorw,iorw).
		return uint32(i.Imm&0xfff)<<20 | f3<<12 | spec.opcode, nil
	case formSys:
		return spec.sysImm<<20 | spec.opcode, nil
	case formAMO:
		aq, rl := uint32(0), uint32(0)
		if i.Aq {
			aq = 1
		}
		if i.Rl {
			rl = 1
		}
		return (spec.f7>>2)<<27 | aq<<26 | rl<<25 | rs2<<20 | i.Rs1.Num()<<15 |
			f3<<12 | i.Rd.Num()<<7 | spec.opcode, nil
	}
	return 0, fmt.Errorf("riscv: unhandled encoding form for %v", i.Mn)
}

// MustEncode is Encode for instructions the caller knows are well-formed.
// It panics on error and exists for code-generation templates whose operand
// ranges are checked at construction.
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// EncodeBytes encodes the instruction to little-endian bytes, honoring the
// compressed form when i.Compressed is set and a compressed encoding exists.
func EncodeBytes(i Inst) ([]byte, error) {
	if i.Compressed {
		if half, ok := Compress(i); ok {
			return []byte{byte(half), byte(half >> 8)}, nil
		}
	}
	w, err := Encode(i)
	if err != nil {
		return nil, err
	}
	return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}, nil
}
