package riscv

// This file provides the per-instruction register access information that
// Dyninst's InstructionAPI obtains from Capstone v6 on RISC-V: which
// registers an instruction reads and which it writes, including implicit
// accesses (the PC for control transfers). The liveness, slicing, and
// stack-height analyses in the dataflow package are built on these sets.

// RegsRead returns the set of registers the instruction reads. x0 reads are
// included (they are architecturally reads, even though the value is fixed);
// callers that care can mask x0 out.
func (i Inst) RegsRead() RegSet {
	var s RegSet
	switch i.Mn {
	case MnLUI:
		// no register sources
	case MnAUIPC, MnJAL:
		s.Add(RegPC)
	case MnJALR:
		s.Add(i.Rs1)
		s.Add(RegPC)
	case MnECALL:
		// The Linux syscall convention reads a0-a5 and a7. Modeling this
		// makes liveness conservative-correct around system calls.
		s.Add(RegA0)
		s.Add(RegA1)
		s.Add(RegA2)
		s.Add(RegA3)
		s.Add(RegA4)
		s.Add(RegA5)
		s.Add(RegA7)
	case MnEBREAK, MnFENCE, MnFENCEI:
		// no register sources
	case MnCSRRWI, MnCSRRSI, MnCSRRCI:
		// immediate forms read no integer register
	default:
		if i.Rs1 != RegNone {
			s.Add(i.Rs1)
		}
		if i.Rs2 != RegNone {
			s.Add(i.Rs2)
		}
		if i.Rs3 != RegNone && IsFMA(i.Mn) {
			s.Add(i.Rs3)
		}
		if i.Cat() == CatBranch {
			s.Add(RegPC)
		}
	}
	return s
}

// RegsWritten returns the set of registers the instruction writes. Writes to
// x0 are dropped (they have no architectural effect). Control transfers
// write the PC.
func (i Inst) RegsWritten() RegSet {
	var s RegSet
	switch i.Cat() {
	case CatStore:
		// stores write memory only
	case CatBranch:
		s.Add(RegPC)
	case CatJAL, CatJALR:
		s.Add(RegPC)
		if i.Rd != RegNone && i.Rd != X0 {
			s.Add(i.Rd)
		}
	default:
		if i.Mn == MnECALL {
			// The syscall clobbers a0 (return value).
			s.Add(RegA0)
			return s
		}
		if i.Rd != RegNone && i.Rd != X0 {
			s.Add(i.Rd)
		}
	}
	return s
}

// CallerSavedX is the set of integer registers the standard RISC-V calling
// convention allows a callee to clobber (temporaries + arguments + ra).
var CallerSavedX = NewRegSet(
	RegRA, RegT0, RegT1, RegT2,
	RegA0, RegA1, RegA2, RegA3, RegA4, RegA5, RegA6, RegA7,
	RegT3, RegT4, RegT5, RegT6,
)

// CalleeSavedX is the set of integer registers a callee must preserve.
var CalleeSavedX = NewRegSet(
	RegSP, RegFP, RegS1, RegS2, RegS3, RegS4, RegS5, RegS6,
	RegS7, RegS8, RegS9, RegS10, RegS11,
)

// ScratchCandidates lists, in preference order, the integer registers the
// code generator considers when it needs scratch space for instrumentation.
// Temporaries come first because they are most often dead at instrumentation
// points; saved registers come last because using one forces a spill unless
// liveness proves it dead.
var ScratchCandidates = []Reg{
	RegT0, RegT1, RegT2, RegT3, RegT4, RegT5, RegT6,
	RegA6, RegA7, RegA5, RegA4, RegA3, RegA2, RegA1, RegA0,
	RegS11, RegS10, RegS9, RegS8, RegS7, RegS6, RegS5, RegS4, RegS3, RegS2, RegS1,
}
