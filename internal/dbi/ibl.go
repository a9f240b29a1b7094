package dbi

import (
	"encoding/binary"

	"rvdyn/internal/emu"
	"rvdyn/internal/patch"
	"rvdyn/internal/riscv"
)

// Inline indirect-branch lookup (IBL): instead of round-tripping the engine
// on every jalr, each indirect exit probes a per-engine hash table mapping
// original target PCs to translated cache entries, entirely in guest code.
// Only a miss (first sight of a target, or an entry severed by
// invalidation) reaches the engine, which refills the table — so hot
// indirect edges (returns above all) stay in the cache like chained direct
// edges do. This is the MAMBO-V/DynamoRIO "indirect branch lookup" shape.

const (
	// iblEntries is the lookup-table size (power of two; the stub masks
	// the halfword-granular PC with iblEntries-1).
	iblEntries = 1024
	// iblEntrySize is one {orig, cache} pair, little-endian.
	iblEntrySize = 16
	// iblRegionSize is the mapped table region.
	iblRegionSize = iblEntries * iblEntrySize
)

// iblScratch picks the three registers the lookup stub replacing in may
// clobber; none may alias the jalr's own operands. Registers dead at the
// jalr need no saving (spill false). Otherwise the stub takes three
// caller-saved temporaries and saves and restores them through the DBI
// scratch CSRs.
func (e *Engine) iblScratch(in riscv.Inst) (s [3]riscv.Reg, spill bool) {
	pick := func(cands []riscv.Reg) bool {
		n := 0
		for _, r := range cands {
			if r == in.Rs1 || r == in.Rd {
				continue
			}
			s[n] = r
			if n++; n == 3 {
				return true
			}
		}
		return false
	}
	if pick(e.deadAt(in.Addr)) {
		return s, false
	}
	pick([]riscv.Reg{riscv.X5, riscv.X6, riscv.X7, riscv.X28, riscv.X29})
	return s, true
}

// emitIBL lays out the inline-lookup stub replacing the jalr in. Shape
// (sA/sB/sC are the scratch picks, all parcels 4 bytes; the bracketed save
// and restores are left out when the picks are dead at the jalr):
//
//	[csrrw x0, 0x7C0..2, sA/sB/sC] save scratch
//	addi  sA, rs1, imm             original target (before the link write —
//	andi  sA, sA, -2                rd may alias rs1)
//	[li rd, origNext]              link = ORIGINAL return address
//	csrrw x0, 0x7C3, sA            stash target for the engine/dbi.jt
//	srli sB, sA, 1; andi sB, sB, 1023; slli sB, sB, 4
//	li   sC, tableBase
//	add  sB, sB, sC
//	ld   sC, 8(sB)                 entry.cache — loaded BEFORE entry.orig
//	ld   sB, 0(sB)                 entry.orig
//	bne  sB, sA, miss
//	csrrw x0, 0x7C3, sC            hit: stash entry.cache instead
//	[csrrs sA/sB/sC, 0x7C0..2, x0] restore scratch
//	dbi.jt                          jump to 0x7C3, apply the hit delta
//
// miss:	[csrrs ×3 restore]; ebreak  engine resolves via 0x7C3 + missFix
//
// The cache field is read before the orig field on purpose: a budget stop
// can park the guest between the two loads, and the engine may sever or
// refill the entry host-side before resuming. Reading cache first means any
// such interleaving leaves the compare looking at the NEWER orig — a
// mismatch falls back to the engine (always correct), and a match can at
// worst pair the new orig with the pre-sever cache address, whose dead
// fragment's bytes are still intact (the same stale-but-consistent
// execution a probe-invalidation drain performs). The reverse order could
// pair a stale matching orig with a zeroed cache and jump to 0.
//
// The zero entry makes a jalr to address 0 "hit" with cache address 0 —
// the next fetch faults at PC 0 exactly as the native wild jump would,
// with the compensation already exact at that boundary.
func (e *Engine) emitIBL(in riscv.Inst, emit func(riscv.Inst) error, stub func(exitStub) *exitStub) error {
	s, spill := e.iblScratch(in)
	sA, sB, sC := s[0], s[1], s[2]
	reg := func(mn riscv.Mnemonic, rd, rs1, rs2 riscv.Reg, imm int64) riscv.Inst {
		return riscv.Inst{Mn: mn, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: riscv.RegNone, Imm: imm}
	}
	save := func(csr uint16, r riscv.Reg) riscv.Inst {
		return riscv.Inst{Mn: riscv.MnCSRRW, Rd: riscv.X0, Rs1: r,
			Rs2: riscv.RegNone, Rs3: riscv.RegNone, CSR: csr}
	}
	restore := func(r riscv.Reg, csr uint16) riscv.Inst {
		return riscv.Inst{Mn: riscv.MnCSRRS, Rd: r, Rs1: riscv.X0,
			Rs2: riscv.RegNone, Rs3: riscv.RegNone, CSR: csr}
	}

	// Common prefix: save scratch (when spilling), compute the original
	// target, commit the link register, stash the target for the
	// engine/dbi.jt. The miss tail is the restores alone.
	var pre, hit, miss []riscv.Inst
	if spill {
		pre = []riscv.Inst{save(0x7C0, sA), save(0x7C1, sB), save(0x7C2, sC)}
		miss = []riscv.Inst{restore(sA, 0x7C0), restore(sB, 0x7C1), restore(sC, 0x7C2)}
	}
	pre = append(pre,
		reg(riscv.MnADDI, sA, in.Rs1, riscv.RegNone, in.Imm),
		reg(riscv.MnANDI, sA, sA, riscv.RegNone, -2),
	)
	if in.Rd != riscv.X0 {
		pre = append(pre, patch.MaterializeAbs(in.Rd, int64(in.Next()))...)
	}
	pre = append(pre, save(0x7C3, sA))

	// The hit tail: stash the translated target, then the same restores;
	// the dbi.jt follows.
	hit = append([]riscv.Inst{save(0x7C3, sC)}, miss...)

	// Hash probe; a failed compare hops over the hit tail + dbi.jt.
	probe := []riscv.Inst{
		reg(riscv.MnSRLI, sB, sA, riscv.RegNone, 1),
		reg(riscv.MnANDI, sB, sB, riscv.RegNone, iblEntries-1),
		reg(riscv.MnSLLI, sB, sB, riscv.RegNone, 4),
	}
	probe = append(probe, patch.MaterializeAbs(sC, int64(e.iblBase))...)
	probe = append(probe,
		reg(riscv.MnADD, sB, sB, sC, 0),
		reg(riscv.MnLD, sC, sB, riscv.RegNone, 8), // entry.cache first — see above
		reg(riscv.MnLD, sB, sB, riscv.RegNone, 0), // entry.orig
		reg(riscv.MnBNE, riscv.RegNone, sB, sA, int64(len(hit)+2)*4),
	)

	jalrCost := e.cost(in.Mn)
	preN, preC := int64(len(pre)), e.sumCost(pre)
	probeN, probeC := int64(len(probe)), e.sumCost(probe)

	// Hit path: pre + probe (bne not taken) + hit tail + the dbi.jt itself
	// retire against the one native jalr.
	hitIdx, err := e.allocDelta(emu.CompDelta{
		Insts:  preN + probeN + int64(len(hit)) + 1 - 1,
		Cycles: preC + probeC + e.sumCost(hit) + e.cost(riscv.MnDBIJT) - jalrCost,
	})
	if err != nil {
		return err
	}
	// Miss path: the compare taken, then the restore tail; the CPU stops
	// before the ebreak and the engine applies this fixup.
	missFix := emu.CompDelta{
		Insts: preN + probeN + int64(len(miss)) - 1,
		Cycles: preC + probeC + int64(e.p.CPU().Model.BranchTakenPenalty) +
			e.sumCost(miss) - jalrCost,
	}

	jt := riscv.Inst{Mn: riscv.MnDBIJT, Rd: riscv.X0, Rs1: riscv.X0,
		Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: int64(hitIdx) - 2048}
	for _, part := range [][]riscv.Inst{pre, probe, hit, {jt}, miss} {
		for _, m := range part {
			if err := emit(m); err != nil {
				return err
			}
		}
	}
	stub(exitStub{kind: stubIndirect, missFix: missFix})
	return nil
}

// iblInsert fills the lookup-table slot for tgt with t's cache entry and
// records the slot on t so invalidating t severs it. A colliding entry is
// simply overwritten (its owner still lists the slot; severing it later
// zeroes whatever is there — a harmless extra miss).
func (e *Engine) iblInsert(tgt uint64, t *translation) error {
	slot := (tgt >> 1) & (iblEntries - 1)
	var b [iblEntrySize]byte
	binary.LittleEndian.PutUint64(b[0:], tgt)
	binary.LittleEndian.PutUint64(b[8:], t.cache)
	if err := e.p.WriteMem(e.iblBase+slot*iblEntrySize, b[:]); err != nil {
		return err
	}
	t.iblSlots = append(t.iblSlots, slot)
	return nil
}

// iblSever zeroes every lookup-table slot targeting t.
func (e *Engine) iblSever(t *translation) error {
	var zero [iblEntrySize]byte
	for _, slot := range t.iblSlots {
		if err := e.p.WriteMem(e.iblBase+slot*iblEntrySize, zero[:]); err != nil {
			return err
		}
	}
	t.iblSlots = nil
	return nil
}

// iblZero clears the whole lookup table (attach and full flush).
func (e *Engine) iblZero() error {
	return e.p.WriteMem(e.iblBase, make([]byte, iblRegionSize))
}
