package dbi

import (
	"encoding/binary"
	"fmt"

	"rvdyn/internal/emu"
	"rvdyn/internal/patch"
	"rvdyn/internal/riscv"
)

// maxBlockInsts caps straight-line translation; longer runs split into
// chained fragments (the cap bounds cache waste per invalidation).
const maxBlockInsts = 64

// stubKind classifies a cache exit stub.
type stubKind int

const (
	// stubDirect exits to a known original address (fall-through, branch
	// edge, jal target, or block-cap continuation). Chainable. Its slot
	// follows a dbi.acc whose delta pre-accounts the chained jal; when the
	// engine services the slot instead (the jal did not retire), it
	// subtracts the jal back out host-side.
	stubDirect stubKind = iota
	// stubIndirect is the miss exit of an inline-lookup stub: the jalr's
	// target was not in the lookup table, so the engine resolves it, refills
	// the table, and redirects. Not chainable.
	stubIndirect
	// stubBreak represents the program's own ebreak: the engine reports a
	// breakpoint event with the original PC.
	stubBreak
)

// exitStub describes one ebreak placed in the cache where translated code
// leaves a fragment.
type exitStub struct {
	addr uint64 // cache address of the stub's ebreak (or chained jal) slot
	kind stubKind

	// target is a direct stub's original target, where native execution
	// restarts if the fragment is abandoned with the PC on the stub, or a
	// break stub's original ebreak.
	target uint64

	// missFix is the compensation a stubIndirect owes when serviced: the
	// lookup stub's common path plus the restore tail retired (with the
	// miss branch taken) in place of the one native jalr.
	missFix emu.CompDelta

	from    *translation
	chained bool
}

// probeSplice records one probe body woven into a translation, so the
// probe can later be patched out of the live copy in place: the body
// becomes nops and the splice's (mutable) compensation delta is updated to
// account for them.
type probeSplice struct {
	orig       uint64 // probed original address
	cacheStart uint64 // first probe instruction in the cache
	cacheEnd   uint64 // end of the probe body == its dbi.acc address
	deltaIdx   int    // unique (non-interned) delta slot for this splice
}

// translation is one basic block copied into the code cache.
type translation struct {
	orig, origEnd   uint64 // source span in the original image
	cache, cacheEnd uint64 // translated span in the cache
	splices         []*probeSplice
	// incoming lists stub addresses patched to jump into this translation;
	// invalidation rewrites them back into ebreaks.
	incoming []uint64
	// iblSlots lists lookup-table slots holding entries that target this
	// translation; invalidation zeroes them (sever) so stale cache
	// addresses are unreachable.
	iblSlots []uint64
	dead     bool
}

func ebreakBytes() []byte {
	w := riscv.MustEncode(riscv.Inst{Mn: riscv.MnEBREAK})
	return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
}

// cost returns the live cost model's cycle cost for mn as a signed delta.
func (e *Engine) cost(mn riscv.Mnemonic) int64 {
	return int64(e.p.CPU().Model.Cost(mn))
}

// takenPenalty returns the live cost model's branch-taken penalty.
func (e *Engine) takenPenalty() int64 {
	return int64(e.p.CPU().Model.BranchTakenPenalty)
}

func (e *Engine) sumCost(insts []riscv.Inst) int64 {
	var c int64
	for _, in := range insts {
		c += e.cost(in.Mn)
	}
	return c
}

// errDeltasFull signals compensation-table exhaustion; the caller flushes
// the cache (which truncates the table — no live translation references it
// afterwards) and retranslates.
var errDeltasFull = fmt.Errorf("dbi: compensation delta table full")

// allocDelta interns an immutable compensation delta and returns its table
// index (dbi.acc/dbi.jt reference it as imm = index - 2048).
func (e *Engine) allocDelta(d emu.CompDelta) (int, error) {
	if idx, ok := e.deltaIdx[d]; ok {
		return idx, nil
	}
	idx, err := e.allocDeltaMut(d)
	if err != nil {
		return 0, err
	}
	e.deltaIdx[d] = idx
	return idx, nil
}

// allocDeltaMut appends a unique, later-mutable delta slot (probe splices
// update theirs in place on removal); it is never interned.
func (e *Engine) allocDeltaMut(d emu.CompDelta) (int, error) {
	if len(e.comp.Deltas) >= 4096 {
		return 0, errDeltasFull
	}
	e.comp.Deltas = append(e.comp.Deltas, d)
	return len(e.comp.Deltas) - 1, nil
}

// accInst builds the dbi.acc applying delta table slot idx.
func accInst(idx int) riscv.Inst {
	return riscv.Inst{Mn: riscv.MnDBIACC, Rd: riscv.X0, Rs1: riscv.X0,
		Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: int64(idx) - 2048}
}

// translate copies the basic block starting at orig into the code cache,
// weaving in attached probe code, rewriting PC-relative instructions and
// terminators, and planting dbi.acc compensation accumulators wherever the
// copy retires a different instruction stream than the original (so the
// virtualized cycle/instret counters stay native-identical), recording
// each group's spans in the provenance table as it goes. It returns
// (nil, nil) when the first instruction cannot be fetched or decoded — the
// caller deopts to native execution, which traps at the same PC with the
// same fault.
func (e *Engine) translate(orig uint64) (*translation, error) {
	insts, origEnd := e.scan(orig)
	if len(insts) == 0 {
		return nil, nil
	}

	var (
		buf     []byte
		stubs   []*exitStub
		splices []*probeSplice
	)
	base := func() uint64 { return e.cacheNext + uint64(len(buf)) }
	// Everything the translator emits is a 4-byte parcel (stub offsets
	// count in 4s), so it encodes in place.
	emit := func(ins ...riscv.Inst) error {
		for _, in := range ins {
			w, err := riscv.Encode(in)
			if err != nil {
				return fmt.Errorf("dbi: encode %v: %w", in, err)
			}
			buf = binary.LittleEndian.AppendUint32(buf, w)
		}
		return nil
	}
	stub := func(s exitStub) {
		s.addr = base()
		buf = append(buf, ebreakBytes()...)
		stubs = append(stubs, &s)
	}
	// dstub lays out a direct exit: [dbi.acc][slot], the slot an ebreak
	// until chained into a jal. d is the full straight-line delta of the
	// emitting group — extras already emitted plus the acc and the jal.
	dstub := func(target uint64, d emu.CompDelta) error {
		idx, err := e.allocDelta(d)
		if err != nil {
			return err
		}
		if err := emit(accInst(idx)); err != nil {
			return err
		}
		stub(exitStub{kind: stubDirect, target: target})
		return nil
	}

	accCost := e.cost(riscv.MnDBIACC)
	jalCost := e.cost(riscv.MnJAL)
	// edgeDelta covers a bare direct exit (branch edge, fall-through, block
	// cap): the acc and the chained jal retire, the original retired nothing.
	edgeDelta := emu.CompDelta{Insts: 2, Cycles: accCost + jalCost}

	work := func() error {
		for _, in := range insts {
			bound := true
			if pr, ok := e.probes[in.Addr]; ok && len(pr.insts) > 0 {
				spliceStart := base()
				for i, pin := range pr.insts {
					e.prov.Gen(patch.Span{Lo: spliceStart + 4*uint64(i), Orig: in.Addr,
						Kind: patch.KindProbe, Bound: i == 0}, pin)
				}
				buf = append(buf, pr.code...)
				n := int64(len(pr.insts))
				idx, err := e.allocDeltaMut(emu.CompDelta{
					Insts: n + 1, Cycles: e.sumCost(pr.insts) + accCost})
				if err != nil {
					return err
				}
				accAddr := base()
				e.prov.Add(patch.Span{Lo: accAddr, Orig: in.Addr, Kind: patch.KindProbe})
				if err := emit(accInst(idx)); err != nil {
					return err
				}
				splices = append(splices, &probeSplice{
					orig: in.Addr, cacheStart: spliceStart, cacheEnd: accAddr, deltaIdx: idx})
				bound = false
			}
			copyStart := base()
			e.prov.Add(patch.Span{Lo: copyStart, Orig: in.Addr, Kind: patch.KindOrig, Bound: bound})
			switch {
			case in.Mn == riscv.MnAUIPC:
				// auipc computes a PC-relative value; materialize the original
				// result absolutely so rd holds exactly the native bits.
				lis := patch.MaterializeAbs(in.Rd, int64(in.Addr)+in.Imm<<12)
				if err := emit(lis...); err != nil {
					return err
				}
				idx, err := e.allocDelta(emu.CompDelta{
					Insts:  int64(len(lis)),
					Cycles: e.sumCost(lis) + accCost - e.cost(riscv.MnAUIPC)})
				if err != nil {
					return err
				}
				if err := emit(accInst(idx)); err != nil {
					return err
				}
			case in.Cat() == riscv.CatBranch:
				// Re-encode the branch to hop over the fall-through stub into
				// the taken stub; both edges exit through direct stubs of the
				// shape [acc][slot], so taken lands on the second acc. The
				// branch itself is cost-identical to the original (same
				// mnemonic, same taken penalty) — zero delta.
				br := in
				br.Compressed = false
				br.Len = 4
				br.Imm = 12
				if err := emit(br); err != nil {
					return err
				}
				if err := dstub(in.Next(), edgeDelta); err != nil {
					return err
				}
				if err := dstub(in.Addr+uint64(in.Imm), edgeDelta); err != nil {
					return err
				}
			case in.Cat() == riscv.CatJAL:
				var lis []riscv.Inst
				if in.Rd != riscv.X0 {
					// The link value is the ORIGINAL return address.
					lis = patch.MaterializeAbs(in.Rd, int64(in.Next()))
					if err := emit(lis...); err != nil {
						return err
					}
				}
				// The group retires lis + acc + chained jal against the one
				// original jal (the jal costs cancel).
				if err := dstub(in.Addr+uint64(in.Imm), emu.CompDelta{
					Insts:  int64(len(lis)) + 1,
					Cycles: e.sumCost(lis) + accCost,
				}); err != nil {
					return err
				}
			case in.Cat() == riscv.CatJALR:
				if err := e.emitIndirect(in, emit, stub, dstub); err != nil {
					return err
				}
			case in.Mn == riscv.MnEBREAK:
				stub(exitStub{kind: stubBreak, target: in.Addr})
			default:
				// Position-independent: copy the original encoding verbatim.
				raw, err := e.p.ReadMem(in.Addr, int(in.Size()))
				if err != nil {
					return err
				}
				buf = append(buf, raw...)
			}
			if tail := copyStart + 4; base() > tail {
				e.prov.Add(patch.Span{Lo: tail, Orig: in.Addr, Kind: patch.KindStub})
			}
		}
		if last := insts[len(insts)-1]; !isTerminator(last) {
			// Block cap or decode stop: continue at the next original address.
			e.prov.Add(patch.Span{Lo: base(), Orig: origEnd, Kind: patch.KindStub})
			if err := dstub(origEnd, edgeDelta); err != nil {
				return err
			}
		}
		return nil
	}
	err := work()
	full := err == nil && e.cacheNext+uint64(len(buf)) > e.cacheEnd
	if err == errDeltasFull || full {
		// The compensation table or the cache is exhausted: flush (which
		// truncates the delta table — no surviving translation references
		// it) and re-emit against the reset cursor with fresh indices.
		if full && e.cacheNext == e.cacheBase {
			return nil, fmt.Errorf("dbi: translation of %#x (%d bytes) exceeds cache size %d",
				orig, len(buf), e.cacheEnd-e.cacheBase)
		}
		if err := e.flushAll(); err != nil {
			return nil, err
		}
		return e.translate(orig)
	}
	if err != nil {
		return nil, err
	}

	t := &translation{
		orig: orig, origEnd: origEnd,
		cache: e.cacheNext, cacheEnd: e.cacheNext + uint64(len(buf)),
		splices: splices,
	}
	for _, s := range stubs {
		s.from = t
		e.exits[s.addr] = s
	}
	if err := e.p.WriteMem(t.cache, buf); err != nil {
		return nil, err
	}
	e.prov.Add(patch.Span{Lo: t.cacheEnd})
	e.cacheNext = (t.cacheEnd + 3) &^ 3
	e.trans[orig] = t
	e.obs.Translations.Inc()
	e.rearmWatch()
	return t, nil
}

// scan decodes the straight-line run starting at orig through the
// breakpoint-transparent debugger view, stopping at the first control
// transfer, undecodable bytes, or the block cap.
func (e *Engine) scan(orig uint64) (insts []riscv.Inst, end uint64) {
	pc := orig
	for len(insts) < maxBlockInsts {
		raw, err := e.p.ReadMem(pc, 4)
		if err != nil {
			if raw, err = e.p.ReadMem(pc, 2); err != nil {
				break
			}
		}
		in, err := riscv.Decode(raw, pc)
		if err != nil {
			break
		}
		insts = append(insts, in)
		pc = in.Next()
		if isTerminator(in) {
			break
		}
	}
	return insts, pc
}

func isTerminator(in riscv.Inst) bool {
	switch in.Cat() {
	case riscv.CatBranch, riscv.CatJAL, riscv.CatJALR:
		return true
	}
	return in.Mn == riscv.MnEBREAK
}

// chain patches a direct exit stub into `jal x0, target` so the edge stays
// inside the cache. Stubs of dead fragments are left alone — their bytes may
// already belong to a newer translation after a flush.
func (e *Engine) chain(s *exitStub, to *translation) error {
	if s.kind != stubDirect || s.chained || s.from == nil || s.from.dead {
		return nil
	}
	delta := int64(to.cache) - int64(s.addr)
	j := riscv.Inst{Mn: riscv.MnJAL, Rd: riscv.X0, Rs1: riscv.RegNone,
		Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: delta}
	w, err := riscv.Encode(j)
	if err != nil {
		// Out of jal reach (cannot happen while the cache fits in ±1 MiB);
		// leave the stub unchained — correct, just slower.
		return nil
	}
	if err := e.p.WriteMem(s.addr, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}); err != nil {
		return err
	}
	s.chained = true
	to.incoming = append(to.incoming, s.addr)
	e.obs.ChainPatches.Inc()
	return nil
}

// unchain restores a patched stub back to its ebreak.
func (e *Engine) unchain(stubAddr uint64) error {
	s := e.exits[stubAddr]
	if s == nil || !s.chained {
		return nil
	}
	if err := e.p.WriteMem(s.addr, ebreakBytes()); err != nil {
		return err
	}
	s.chained = false
	return nil
}
