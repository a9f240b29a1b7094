package riscv

// RVA23-profile extension module: Zicond (integer conditional), Zba
// (address-generation shifts), and a Zbb subset (bit-manipulation).
//
// This file is the whole ISA-model footprint of the three extensions: one
// defineInst row per instruction, which installs its mnemonic metadata and
// its encTable row, and the decoder derives its decoding from that row. No
// other file in this package (or in parse/dataflow) changes. That
// demonstrates the design requirement of paper Section 3.1.1: "adding a
// RISC-V extension into Dyninst does not require manually changing
// multiple parts of the source code", which Section 3.4 plans to exercise
// for exactly this profile.

// defineR defines one R-type integer extension instruction.
func defineR(mn Mnemonic, name string, ext ExtSet, f3, f7 uint32) {
	defineInst(mn, name, ext, CatArith, encSpec{form: formR, opcode: opOp, f3: f3, f7: f7})
}

func init() {
	// Zicond: rd = (rs2 ==/!= 0) ? 0 : rs1.
	defineR(MnCZEROEQZ, "czero.eqz", ExtZicond, 5, 0b0000111)
	defineR(MnCZERONEZ, "czero.nez", ExtZicond, 7, 0b0000111)

	// Zba: rd = (rs1 << k) + rs2.
	defineR(MnSH1ADD, "sh1add", ExtZba, 2, 0b0010000)
	defineR(MnSH2ADD, "sh2add", ExtZba, 4, 0b0010000)
	defineR(MnSH3ADD, "sh3add", ExtZba, 6, 0b0010000)

	// Zbb subset: negated logic and min/max.
	defineR(MnANDN, "andn", ExtZbb, 7, 0b0100000)
	defineR(MnORN, "orn", ExtZbb, 6, 0b0100000)
	defineR(MnXNOR, "xnor", ExtZbb, 4, 0b0100000)
	defineR(MnMIN, "min", ExtZbb, 4, 0b0000101)
	defineR(MnMINU, "minu", ExtZbb, 5, 0b0000101)
	defineR(MnMAX, "max", ExtZbb, 6, 0b0000101)
	defineR(MnMAXU, "maxu", ExtZbb, 7, 0b0000101)
}
