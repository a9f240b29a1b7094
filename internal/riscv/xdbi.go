package riscv

// Xdbi extension module: two custom-0 I-type instructions the DBI engine
// emits into its code cache and nowhere else. Like the RVA23 module
// (rva23.go) it is one defineInst row per instruction: the row installs the
// mnemonic metadata and the encTable entry, the decoder derives the
// decoding from it, and no other file in this package changes (the paper's
// Section 3.1.1 extension modularity requirement, exercised here for a
// custom extension).
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

func init() {
	defineInst(MnDBIACC, "dbi.acc", ExtXdbi, CatArith, encSpec{form: formI, opcode: opCustom0, f3: 0})
	defineInst(MnDBIJT, "dbi.jt", ExtXdbi, CatJALR, encSpec{form: formI, opcode: opCustom0, f3: 1})
}
