package dbi

import (
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
	// edge, jal target, or block-cap continuation). Chainable.
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

	target uint64 // stubDirect: original target; stubBreak: original ebreak

	// accAddr is the dbi.acc accumulator preceding a direct stub's slot
	// (0: none). Its delta pre-accounts the chained jal; when the engine
	// services the slot instead (the jal did not retire), it subtracts the
	// jal back out host-side.
	accAddr uint64

	// missFix is the compensation a stubIndirect owes when serviced: the
	// lookup stub's common path plus the restore tail retired (with the
	// miss branch taken) in place of the one native jalr.
	missFix emu.CompDelta

	// resume is the original address at which native execution correctly
	// (re)starts if the engine must abandon this fragment with the PC parked
	// on the stub. Direct stubs resume at their target; for stubIndirect the
	// target lives in DBI scratch CSR 0x7C3 (the lookup stub computed and
	// committed it, along with the link register, before the miss exit).
	resume uint64

	from    *translation
	chained bool
}

// bound maps the cache address of one original instruction's translation
// group (probe code included) back to the original address.
type bound struct{ cache, orig uint64 }

// probeSplice records one probe body woven into a translation, so the
// probe can later be patched out of the live copy in place: the body
// becomes nops and the splice's (mutable) compensation delta is updated to
// account for them.
type probeSplice struct {
	orig       uint64 // probed original address
	cacheStart uint64 // first probe instruction in the cache
	cacheEnd   uint64 // end of the probe body == its dbi.acc address
	nInsts     int64  // probe body instruction count (all 4-byte)
	deltaIdx   int    // unique (non-interned) delta slot for this splice
}

// translation is one basic block copied into the code cache.
type translation struct {
	orig, origEnd   uint64 // source span in the original image
	cache, cacheEnd uint64 // translated span in the cache
	bounds          []bound
	stubs           []*exitStub
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

// mapBack maps a cache PC sitting on a translation-group boundary back to
// the original address.
func (t *translation) mapBack(pc uint64) (uint64, bool) {
	for _, b := range t.bounds {
		if b.cache == pc {
			return b.orig, true
		}
	}
	return 0, false
}

func ebreakBytes() []byte {
	w := riscv.MustEncode(riscv.Inst{Mn: riscv.MnEBREAK})
	return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
}

// cost returns the live cost model's cycle cost for mn as a signed delta.
func (e *Engine) cost(mn riscv.Mnemonic) int64 {
	return int64(e.p.CPU().Model.Cost(mn))
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
// virtualized cycle/instret counters stay native-identical). It returns
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
		bounds  []bound
		stubs   []*exitStub
		splices []*probeSplice
	)
	base := func() uint64 { return e.cacheNext + uint64(len(buf)) }
	emit := func(in riscv.Inst) error {
		b, err := riscv.EncodeBytes(in)
		if err != nil {
			return fmt.Errorf("dbi: encode %v: %w", in, err)
		}
		buf = append(buf, b...)
		return nil
	}
	stub := func(s exitStub) *exitStub {
		s.addr = base()
		buf = append(buf, ebreakBytes()...)
		sp := s
		stubs = append(stubs, &sp)
		return &sp
	}
	// dstub lays out a direct exit: [dbi.acc][slot], the slot an ebreak
	// until chained into a jal. d is the full straight-line delta of the
	// emitting group — extras already emitted plus the acc and the jal.
	dstub := func(target uint64, d emu.CompDelta) error {
		idx, err := e.allocDelta(d)
		if err != nil {
			return err
		}
		accAddr := base()
		if err := emit(accInst(idx)); err != nil {
			return err
		}
		st := stub(exitStub{kind: stubDirect, target: target, resume: target})
		st.accAddr = accAddr
		return nil
	}

	accCost := e.cost(riscv.MnDBIACC)
	jalCost := e.cost(riscv.MnJAL)
	// edgeDelta covers a bare direct exit (branch edge, fall-through, block
	// cap): the acc and the chained jal retire, the original retired nothing.
	edgeDelta := emu.CompDelta{Insts: 2, Cycles: accCost + jalCost}

	work := func() error {
		for _, in := range insts {
			bounds = append(bounds, bound{cache: base(), orig: in.Addr})
			if pr, ok := e.probes[in.Addr]; ok && len(pr.insts) > 0 {
				spliceStart := base()
				buf = append(buf, pr.code...)
				n := int64(len(pr.insts))
				idx, err := e.allocDeltaMut(emu.CompDelta{
					Insts: n + 1, Cycles: e.sumCost(pr.insts) + accCost})
				if err != nil {
					return err
				}
				accAddr := base()
				if err := emit(accInst(idx)); err != nil {
					return err
				}
				splices = append(splices, &probeSplice{
					orig: in.Addr, cacheStart: spliceStart, cacheEnd: accAddr,
					nInsts: n, deltaIdx: idx,
				})
			}
			switch {
			case in.Mn == riscv.MnAUIPC:
				// auipc computes a PC-relative value; materialize the original
				// result absolutely so rd holds exactly the native bits.
				lis := patch.MaterializeAbs(in.Rd, int64(in.Addr)+in.Imm<<12)
				for _, m := range lis {
					if err := emit(m); err != nil {
						return err
					}
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
					for _, m := range lis {
						if err := emit(m); err != nil {
							return err
						}
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
				if err := e.emitIBL(in, emit, stub); err != nil {
					return err
				}
			case in.Mn == riscv.MnEBREAK:
				stub(exitStub{kind: stubBreak, target: in.Addr, resume: in.Addr})
			default:
				// Position-independent: copy the original encoding verbatim.
				raw, err := e.p.ReadMem(in.Addr, int(in.Size()))
				if err != nil {
					return err
				}
				buf = append(buf, raw...)
			}
		}
		if last := insts[len(insts)-1]; !isTerminator(last) {
			// Block cap or decode stop: continue at the next original address.
			if err := dstub(origEnd, edgeDelta); err != nil {
				return err
			}
		}
		return nil
	}
	if err := work(); err != nil {
		if err == errDeltasFull {
			// The compensation table is exhausted: flush (truncating the
			// table — no surviving translation references it) and retry.
			if ferr := e.flushAll(); ferr != nil {
				return nil, ferr
			}
			return e.translate(orig)
		}
		return nil, err
	}

	if e.cacheNext+uint64(len(buf)) > e.cacheEnd {
		if err := e.flushAll(); err != nil {
			return nil, err
		}
		if e.cacheNext+uint64(len(buf)) > e.cacheEnd {
			return nil, fmt.Errorf("dbi: translation of %#x (%d bytes) exceeds cache size %d",
				orig, len(buf), e.cacheEnd-e.cacheBase)
		}
		// The emitted addresses assumed the pre-flush cacheNext; re-emit
		// against the reset cursor. (The flush also truncated the delta
		// table, so the indices must be re-allocated too.)
		return e.translate(orig)
	}

	t := &translation{
		orig: orig, origEnd: origEnd,
		cache: e.cacheNext, cacheEnd: e.cacheNext + uint64(len(buf)),
		bounds: bounds, stubs: stubs, splices: splices,
	}
	for _, s := range stubs {
		s.from = t
		e.exits[s.addr] = s
	}
	if err := e.p.WriteMem(t.cache, buf); err != nil {
		return nil, err
	}
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
