package dbi

import (
	"encoding/binary"
	"slices"

	"rvdyn/internal/emu"
	"rvdyn/internal/patch"
	"rvdyn/internal/riscv"
)

// Indirect exits resolve in two stages, both in guest code: a return chain,
// then the inline indirect-branch lookup (IBL).
//
// The chain is the static half (Dyninst's CFG doing what a dynamic cache
// would): at a plain ret in a parsed function with at most maxRetSites
// direct return sites (the fall-through addresses of the EdgeCall edges
// into its entry), the translation compares ra against each site and a hit
// leaves through an ordinary direct exit stub, which chains like any direct
// edge. A return anywhere else (a modified ra, longjmp, an unparsed or
// indirect caller) falls through to the probe, so the chain is always
// correct: ra equal to a site means the target is that site.
//
// The probe is the dynamic half: it looks the original target up in a
// per-engine hash table mapping original target PCs to translated cache
// entries. Only a miss (first sight of a target, or an entry severed by
// invalidation) reaches the engine, which refills the table, so hot
// indirect edges stay in the cache like chained direct edges do. This is
// the MAMBO-V/DynamoRIO "indirect branch lookup" shape.

const (
	// iblEntries is the lookup-table size (power of two; the stub masks
	// the halfword-granular PC with iblEntries-1).
	iblEntries = 1024
	// iblEntrySize is one {orig, cache} pair, little-endian.
	iblEntrySize = 16
	// iblRegionSize is the mapped table region.
	iblRegionSize = iblEntries * iblEntrySize
	// maxRetSites caps the return chain: a function with more direct
	// return sites resolves its returns through the probe alone.
	maxRetSites = 4
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

// emitIndirect lays out the translation of the jalr in: the return chain
// when returnChain finds one, then the lookup stub and its miss exit, then
// one direct exit per chained return site. Shape of the chain over sites
// s0 < s1 < ... (t is a register dead at the ret; all parcels 4 bytes):
//
//	li   t, s0               (lui+addi, see liSite)
//	beq  ra, t, →exit0
//	addi t, t, s1-s0         (a gap beyond ±2 KiB re-materializes instead)
//	beq  ra, t, →exit1
//	...
//	<lookup stub>; ebreak    (the miss exit)
//	exit0: dbi.acc; ebreak   (a direct stub to s0, chained into a jal)
//	exit1: ...
//
// The compare is on ra as is, not masked, so an odd ra falls through to the
// probe, which masks. Each exit's accumulator carries its own hit path
// (branch-taken penalty included) against the one native ret; the chain's
// not-taken path folds into the probe's hit and miss deltas.
func (e *Engine) emitIndirect(in riscv.Inst, emit func(...riscv.Inst) error, stub func(exitStub),
	dstub func(uint64, emu.CompDelta) error) error {
	t, sites := e.returnChain(in)
	var (
		chain []riscv.Inst
		beqs  []int // chain index of each site's beq
		hits  []emu.CompDelta
		fall  emu.CompDelta // the chain's straight-line path so far
	)
	accJal := e.cost(riscv.MnDBIACC) + e.cost(riscv.MnJAL) - e.cost(in.Mn)
	var prev uint64
	for k, site := range sites {
		var step []riscv.Inst
		if k > 0 && site-prev <= 2047 {
			step = []riscv.Inst{{Mn: riscv.MnADDI, Rd: t, Rs1: t, Rs2: riscv.RegNone, Rs3: riscv.RegNone,
				Imm: int64(site - prev)}}
		} else {
			step = liSite(t, site)
		}
		prev = site
		beq := riscv.Inst{Mn: riscv.MnBEQ, Rd: riscv.RegNone, Rs1: in.Rs1, Rs2: t, Rs3: riscv.RegNone}
		chain = append(append(chain, step...), beq)
		beqs = append(beqs, len(chain)-1)
		fall.Insts += int64(len(step)) + 1
		fall.Cycles += e.sumCost(step) + e.cost(riscv.MnBEQ)
		// Taken here: the chain so far, the acc and the chained jal.
		hits = append(hits, emu.CompDelta{
			Insts:  fall.Insts + 2 - 1,
			Cycles: fall.Cycles + e.takenPenalty() + accJal,
		})
	}
	ibl, missFix, err := e.lowerIBL(in, fall)
	if err != nil {
		return err
	}
	for k, i := range beqs {
		// Past the rest of the chain, the stub and its miss ebreak, to the
		// k-th [dbi.acc][slot] exit.
		chain[i].Imm = int64(len(chain)-i+len(ibl)+1+2*k) * 4
	}
	if err := emit(append(chain, ibl...)...); err != nil {
		return err
	}
	stub(exitStub{kind: stubIndirect, missFix: missFix})
	for k, site := range sites {
		if err := dstub(site, hits[k]); err != nil {
			return err
		}
	}
	return nil
}

// liSite materializes the return site v into t. MaterializeAbs's lui+addiw
// becomes lui+addi where both give v (any site below 2 GiB - 2 KiB), which
// the emulator fuses into one op.
func liSite(t riscv.Reg, v uint64) []riscv.Inst {
	li := patch.MaterializeAbs(t, int64(v))
	if len(li) == 2 && li[0].Mn == riscv.MnLUI && li[1].Mn == riscv.MnADDIW &&
		uint64(li[0].Imm<<44>>32+li[1].Imm) == v {
		li[1].Mn = riscv.MnADDI
	}
	return li
}

// returnChain reports the return sites a ret at in can be compared against,
// in address order, and a register dead at the ret to compare through. It
// returns no sites unless in is a plain ret (jalr x0, 0(ra)) in parsed
// functions with 1 to maxRetSites direct return sites between them, whose
// liveness the engine trusts (deadAt: the bytes still match the file).
func (e *Engine) returnChain(in riscv.Inst) (riscv.Reg, []uint64) {
	if in.Mn != riscv.MnJALR || in.Rd != riscv.X0 || in.Rs1 != riscv.X1 || in.Imm != 0 {
		return 0, nil
	}
	dead := e.deadAt(in.Addr)
	i := slices.IndexFunc(dead, func(r riscv.Reg) bool { return r != in.Rs1 })
	if i < 0 {
		return 0, nil
	}
	var sites []uint64
	for _, fn := range e.funcsAt(in.Addr) {
		for _, s := range e.retSites[fn.Entry] {
			if !slices.Contains(sites, s) {
				sites = append(sites, s)
			}
		}
	}
	if len(sites) > maxRetSites {
		return 0, nil
	}
	slices.Sort(sites)
	return dead[i], sites
}

// lowerIBL returns the inline-lookup stub replacing the jalr in, up to and
// including its miss tail; the caller places the miss exit stub (an ebreak)
// right after it, with the returned fixup. prefix is the straight-line
// divergence of whatever the caller emitted ahead of the stub (the return
// chain's not-taken path): both the hit and the miss delta include it.
// Shape (sA/sB/sC are the scratch picks, all parcels 4 bytes; the
// bracketed save and restores are left out when the picks are dead at the
// jalr):
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
func (e *Engine) lowerIBL(in riscv.Inst, prefix emu.CompDelta) ([]riscv.Inst, emu.CompDelta, error) {
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
		Insts:  prefix.Insts + preN + probeN + int64(len(hit)) + 1 - 1,
		Cycles: prefix.Cycles + preC + probeC + e.sumCost(hit) + e.cost(riscv.MnDBIJT) - jalrCost,
	})
	if err != nil {
		return nil, emu.CompDelta{}, err
	}
	// Miss path: the compare taken, then the restore tail; the CPU stops
	// before the ebreak and the engine applies this fixup.
	missFix := emu.CompDelta{
		Insts: prefix.Insts + preN + probeN + int64(len(miss)) - 1,
		Cycles: prefix.Cycles + preC + probeC + e.takenPenalty() +
			e.sumCost(miss) - jalrCost,
	}

	jt := riscv.Inst{Mn: riscv.MnDBIJT, Rd: riscv.X0, Rs1: riscv.X0,
		Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: int64(hitIdx) - 2048}
	code := slices.Concat(pre, probe, hit, []riscv.Inst{jt}, miss)
	return code, missFix, nil
}

// iblInsert fills the lookup-table slot for tgt with t's cache entry and
// records the slot on t, once, so invalidating t severs it. A colliding
// entry is simply overwritten (its owner still lists the slot; severing it
// later zeroes whatever is there — a harmless extra miss).
func (e *Engine) iblInsert(tgt uint64, t *translation) error {
	slot := (tgt >> 1) & (iblEntries - 1)
	var b [iblEntrySize]byte
	binary.LittleEndian.PutUint64(b[0:], tgt)
	binary.LittleEndian.PutUint64(b[8:], t.cache)
	if err := e.p.WriteMem(e.iblBase+slot*iblEntrySize, b[:]); err != nil {
		return err
	}
	if !slices.Contains(t.iblSlots, slot) {
		t.iblSlots = append(t.iblSlots, slot)
	}
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
