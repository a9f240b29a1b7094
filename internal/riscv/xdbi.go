package riscv

// Xdbi extension module: two custom-0 I-type instructions the DBI engine
// emits into its code cache and nowhere else. They follow the same
// self-registration pattern as the RVA23 module (rva23.go) — mnemonic
// metadata, encodings, and decodings install themselves from init, and no
// other file in this package changes (the paper's Section 3.1.1 extension
// modularity requirement, exercised here for a custom extension).
//
//	dbi.acc rd, rs1, imm   (funct3=0) — counter-compensation accumulator.
//	    Applies the compensation delta indexed by imm+2048 to the attached
//	    DBIComp: the delta records how far the translated instruction
//	    stream has diverged from the original in retired instructions and
//	    cycles, so rdcycle/rdinstret reads subtract it back out. rd/rs1
//	    are ignored (encoded as x0).
//	dbi.jt rd, rs1, imm    (funct3=1) — inline indirect-branch transfer.
//	    Terminates an inline-lookup stub on a hit: control transfers to
//	    the translated cache address stashed in DBIComp scratch CSR 0x7C3,
//	    after applying the delta indexed by imm+2048. Classified CatJALR
//	    (it IS an indirect jump) but dispatched by value in the emulator.
//	    rd/rs1 are ignored (encoded as x0).
//
// Outside a DBI-attached CPU (DBIComp == nil) both instructions fault like
// any unimplemented custom opcode, so native runs are unaffected.

// opCustom0 is the custom-0 opcode space (0b0001011), reserved by the ISA
// for vendor extensions and never used by any standard encoding.
const opCustom0 uint32 = 0b0001011

// extIKey identifies an I-type encoding by opcode and funct3.
type extIKey struct {
	opcode, f3 uint32
}

// extDecodeI maps I-type encodings claimed by extension modules. decode32
// consults it before declaring an unknown opcode illegal.
var extDecodeI = map[extIKey]Mnemonic{}

// registerI wires up one I-type extension instruction in both directions.
func registerI(mn Mnemonic, name string, ext ExtSet, cat Category, opcode, f3 uint32) {
	registerMnemonic(mn, name, ext, cat)
	encTable[mn] = encSpec{form: formI, opcode: opcode, f3: f3}
	extDecodeI[extIKey{opcode, f3}] = mn
}

func init() {
	registerI(MnDBIACC, "dbi.acc", ExtXdbi, CatArith, opCustom0, 0)
	registerI(MnDBIJT, "dbi.jt", ExtXdbi, CatJALR, opCustom0, 1)
}

// decodeExtI is the decoder hook: called when the base-ISA switch does not
// recognize an opcode, before giving up as illegal.
func decodeExtI(inst Inst, opcode, f3, rd, rs1 uint32, imm int64) (Inst, bool) {
	mn, ok := extDecodeI[extIKey{opcode, f3}]
	if !ok {
		return inst, false
	}
	inst.Mn = mn
	inst.Rd = XReg(rd)
	inst.Rs1 = XReg(rs1)
	inst.Imm = imm
	return inst, true
}
