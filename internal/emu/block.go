package emu

import "rvdyn/internal/riscv"

// Superblocks: the unit of fast-tier dispatch.
//
// The per-instruction interpreter loop pays, for every retired instruction,
// a fetch (icache probe plus bounds checks), a Trace probe, an Exited and
// budget check, a cost-model lookup, and the full mnemonic switch. Almost
// all of that is loop-invariant over a straight-line run of code, so the
// fast tier amortises it: code is decoded once into superblocks —
// straight-line runs ending at a control-transfer or system instruction —
// and each block is compiled into an op stream (see stream in trace.go):
// one specializer turns every riscv.Inst into an op with its operands
// pre-masked, the block keeps its cycle prefix sums for the exits, and one
// fusion pass merges adjacent ops as they are built. Run then executes a
// whole block per dispatch through the same executor that runs traces (the
// same idea MAMBO-V's fragment linking and pre-decoded dispatch tables use
// to make instrumentation-heavy runs tractable).
//
// One executor serves two granularities. A block is a one-block,
// non-looping op stream whose closing branch has no prediction, so it
// leaves the stream either way. A trace (trace.go) is a hot chain of
// blocks: their ops copied end to end, each block-closing branch compiled
// in its predicted direction. Around the executor:
//
//   - Chaining: every op stream, block or trace, caches direct successor
//     pointers (taken/fallthrough, the last two indirect targets, a
//     trace's end, and one per trace side exit in its segment), resolved
//     lazily on first exit, so loops, straight-line runs and trace exits
//     dispatch onward without re-probing the block map. A chained pointer is honoured only while its target's
//     generation is current, so the existing invalidation machinery
//     severs chains for free.
//   - Macro-op fusion: the fusions table below lists every fusable pair —
//     the adjacent pairs the assembler emits (lui+addi, auipc+addi,
//     auipc+ld, slli+add, ld/sd pairs on consecutive offsets,
//     compare+branch, the patch ladder's auipc+jalr rung) and the superops
//     built on them (mul+add, slli+add+ld/fld, addi+jal, addi+branch). The
//     cost model is charged per constituent, so Cycles, Instret, and the
//     virtual clock stay bit-identical to per-instruction dispatch.
//
// Coherence with self-modifying code and dynamic patching reuses the
// icache invalidation machinery: every block records the icache generation
// (CPU.icGen) it was decoded under; storeCheck/WriteMem/FlushICache bump
// the generation, and a stale block is re-decoded on its next dispatch.
// A store inside a block is followed by a generation check so a block that
// rewrites its own tail (or the next block) retires only the instructions
// that were executed before the write, then returns to the dispatcher.

// maxBlockLen caps the instructions of one superblock; longer straight-line
// runs are split, with the continuation picked up by the next dispatch.
const maxBlockLen = 64

// blockLink caches one resolved successor of a stream. hits counts how many
// dispatches the link served; crossing the trace-hotness threshold makes
// the target a trace-compilation head (trace.go).
type blockLink struct {
	pc   uint64
	b    *block
	hits uint32
}

// block is one superblock: its compiled op stream (with the successor
// cache every stream carries), plus the trace state of its head PC.
type block struct {
	stream

	// trc is the compiled trace headed at this block (trace.go); trcFail
	// marks a head whose walk produced nothing traceable, so the hotness
	// trigger stops retrying it.
	trc     *stream
	trcFail bool
	// inTrace marks a block some trace copied: retiring it on its own
	// would leave the copy live, so a write over it bumps the generation.
	inTrace bool
	// self is the block's one segment (stream.segs), so exits find the
	// bookkeeping of a block's op and a trace's alike.
	self [1]traceSeg
}

// addSucc installs nb as a cached successor of s, evicting round-robin.
func (s *stream) addSucc(pc uint64, nb *block) {
	for i := range s.succ {
		if s.succ[i].b == nil {
			s.succ[i] = blockLink{pc: pc, b: nb}
			return
		}
	}
	s.succ[s.succRR&1] = blockLink{pc: pc, b: nb}
	s.succRR++
}

// chainNext resolves the block at the current PC after s retired, whether
// s is a block or a trace: first through a cached successor link (a chain
// hit skips the block map entirely), severing stale links as it goes, then
// through blockAt, caching the result for the next visit. A trace side
// exit has its own link, its segment's (CPU.sideSeg); every other exit
// shares the stream's two.
func (c *CPU) chainNext(s *stream) *block {
	pc := c.PC
	links := s.succ[:]
	side := c.sideSeg
	if side != nil {
		c.sideSeg = nil
		links = side.side[:]
	}
	for i := range links {
		l := &links[i]
		if l.b == nil || l.pc != pc {
			continue
		}
		if l.b.gen == c.icGen {
			c.chainHits++
			l.hits++
			if l.hits&traceHotMask == 0 {
				c.maybeTrace(l.b, pc)
			}
			return l.b
		}
		l.b = nil // severed: target was invalidated
		c.chainSevers++
	}
	nb := c.blockAt(pc)
	switch {
	case nb == nil:
	case side != nil:
		links[0] = blockLink{pc: pc, b: nb}
	default:
		s.addSucc(pc, nb)
	}
	return nb
}

// blockAt returns a current-generation block starting at pc, building (or
// rebuilding) it if needed. It returns nil when pc cannot be fetched; the
// caller falls back to the slow path, which reports the fault.
func (c *CPU) blockAt(pc uint64) *block {
	if ch := c.chunk(pc, false); ch != nil {
		if b := ch.blk[chunkSlot(pc)]; b != nil {
			if b.gen == c.icGen {
				if b.epoch != c.epoch {
					c.restart(b)
				}
				c.blockHits++
				return b
			}
			if b.trc != nil {
				// The head went stale (SMC/patching): its trace dies with it.
				b.trc = nil
				c.traceSevers++
			}
		}
	}
	return c.buildBlock(pc)
}

// restart gives a block from an earlier epoch (CPU.epoch) a fresh profile:
// its successor links count from zero, it has no trace, and it gets
// another try at being a trace head.
func (c *CPU) restart(b *block) {
	if b.trc != nil {
		b.trc = nil
		c.traceSevers++
	}
	b.succ[0].hits, b.succ[1].hits, b.trcFail, b.epoch = 0, 0, false, c.epoch
}

// buildBlock decodes the straight-line run at pc, up to and including its
// terminator, and compiles it: each instruction is specialized into an op
// and fused into the op before it when a fusions row matches.
func (c *CPU) buildBlock(pc uint64) *block {
	if c.Obs != nil {
		c.Obs.BlockBuilds.Inc()
	}
	n, a := 0, pc
	for n < maxBlockLen {
		inst, err := c.fetchAt(a)
		if err != nil {
			break // the slow path refetches at a and reports the fault
		}
		n++
		a = inst.Next()
		if opKind(&inst) >= otBr {
			break // control transfer or system instruction: terminator
		}
	}
	if n == 0 {
		return nil
	}
	// Copy the run out of the decode cache, so the ops point at
	// instructions that outlive invalidation, and compile it.
	b := &block{stream: stream{gen: c.icGen, epoch: c.epoch, endPC: a,
		insts: make([]riscv.Inst, n), cyc: make([]uint32, n+1)}}
	ops := make([]traceOp, 0, n)
	a = pc
	for i := range b.insts {
		in := &b.insts[i]
		*in, _ = c.fetchAt(a) // a decode-cache hit: fetched above
		a = in.Next()
		b.cyc[i+1] = b.cyc[i] + uint32(c.Model.Cost(in.Mn))
		op := specialize(in)
		op.at = uint8(i)
		if m := len(ops); m > 0 {
			if k := fuse(&ops[m-1], &op); k >= 0 {
				c.fuseCount[k]++
				continue
			}
		}
		ops = append(ops, op)
	}
	b.ops = ops
	switch last := &b.ops[len(b.ops)-1]; last.kind {
	case otJal, otAddiJal, otAuipcJalr:
		b.endPC = last.aux // constant-target transfer: the block falls off at its target
	}
	c.seal(b)
	c.chunk(pc, true).blk[chunkSlot(pc)] = b
	return b
}

// Op kinds. Kinds below otBr are straight-line; otBr and above end a block.
// Every straight-line mnemonic without a dedicated kind runs through
// execStraight (otStraight), exactly as the slow path does.
const (
	otStraight uint8 = iota // execStraight(in)
	otCmp                   // slt/sltu/slti/sltiu: execStraight, fusable with a branch
	otCSR                   // any other DBI scratch-CSR op: csrOp(in)

	// Dedicated kinds of what a DBI engine emits into its code cache:
	// compensation accumulators and the lookup stubs' scratch saves and
	// restores (the scratch index in aux). A CPU without a DBIComp faults
	// them through execStraight and csrOp, as the slow path does.
	otDBIAcc   // dbi.acc: DBIComp.apply(imm + 2048)
	otScratchW // csrrw x0, 0x7C0+aux, rs1 (rs1 != x0)
	otScratchR // csrrs rd, 0x7C0+aux, x0 (rd != x0)

	// Dedicated kinds of the hot mnemonics. The integer ones (otAddi
	// through otLw) require rd != x0; otLui and otAuipc fold their value
	// into aux.
	otAddi
	otAdd
	otSub
	otSlli
	otAndi
	otSrli
	otAddiw
	otLui
	otAuipc
	otMul
	otLd
	otLw
	otSd
	otSw
	otFld
	otFsd
	otFmaddd
	otFaddd
	otFmuld

	// Fused kinds (see fusions).
	otConstPair  // lui/auipc+addi: rd = aux, rs3 = aux2
	otAuipcLd    // rd = aux, rs3 = load from aux2
	otSlliAdd    // rd = rs1 << imm, rs3 = rd + rs2
	otLdPair     // rd, rs3 = ld imm(rs1), ld imm+8(rs1)
	otSdPair     // sd rs2, imm(rs1); sd rs3, imm+8(rs1)
	otMulAdd     // rd = rs1 * rs2, rs3 = rd + rs4
	otSlliAddLd  // otSlliAdd (shift in aux), then rs4 = ld imm(rs3)
	otSlliAddFld // as otSlliAddLd, loading f[rs4]

	// Kinds that end a block.
	otBr        // conditional branch: aux taken target, aux2 fallthrough
	otCmpBr     // execStraight(in) compare, then branch
	otAddiBr    // addi, then branch on rs3, rs4
	otJal       // rd = aux2 (link), continue at aux
	otAddiJal   // addi, then rs3 = aux2 (link), continue at aux
	otAuipcJalr // rd = imm (auipc value), rs3 = aux2 (link), continue at aux
	otJalr      // indirect jump: always leaves the stream
	otDBIJT     // DBI inline-lookup transfer: always leaves the stream
	otExec      // commit the prefix, then exec(in): ecall, counter/FP CSRs, fence.i, ebreak
)

// opKind classifies one decoded instruction: a dedicated kind for the hot
// mnemonics, otStraight for every other straight-line one, and a kind at
// or above otBr for the control transfers and system instructions that
// end a block.
func opKind(in *riscv.Inst) uint8 {
	switch in.Mn.Cat() {
	case riscv.CatBranch:
		return otBr
	case riscv.CatJAL:
		return otJal
	case riscv.CatJALR:
		// dbi.jt is CatJALR by nature (an indirect jump) but takes its
		// target from DBI scratch state, not rs1+imm.
		if in.Mn == riscv.MnDBIJT {
			return otDBIJT
		}
		return otJalr
	}
	kind := otStraight
	switch in.Mn {
	case riscv.MnInvalid, riscv.MnECALL, riscv.MnEBREAK, riscv.MnFENCEI:
		// Stop state, syscalls, and fence.i (which invalidates the very
		// cache the block lives in) go through exec.
		return otExec
	case riscv.MnCSRRW, riscv.MnCSRRS, riscv.MnCSRRC,
		riscv.MnCSRRWI, riscv.MnCSRRSI, riscv.MnCSRRCI:
		// Counter reads see the live cycle/instret counters, which are only
		// up to date at op-stream exits, so counter and FP CSR ops end the
		// block. The DBI scratch CSRs touch neither: the inline-lookup
		// stubs that save and restore through them stay in-block, and
		// their two plain move forms run as direct Scratch accesses.
		if !isDBIScratchCSR(in.CSR) {
			return otExec
		}
		switch {
		case in.Mn == riscv.MnCSRRW && in.Rd == riscv.X0 && in.Rs1 != riscv.X0:
			return otScratchW
		case in.Mn == riscv.MnCSRRS && in.Rs1 == riscv.X0 && in.Rd != riscv.X0:
			return otScratchR
		}
		return otCSR
	case riscv.MnDBIACC:
		return otDBIAcc // rd is ignored
	case riscv.MnSLT, riscv.MnSLTU, riscv.MnSLTI, riscv.MnSLTIU:
		return otCmp
	case riscv.MnSD:
		return otSd
	case riscv.MnSW:
		return otSw
	case riscv.MnFLD:
		return otFld
	case riscv.MnFSD:
		return otFsd
	case riscv.MnFMADDD:
		return otFmaddd
	case riscv.MnFADDD:
		return otFaddd
	case riscv.MnFMULD:
		return otFmuld
	case riscv.MnADDI:
		kind = otAddi
	case riscv.MnADD:
		kind = otAdd
	case riscv.MnSUB:
		kind = otSub
	case riscv.MnSLLI:
		kind = otSlli
	case riscv.MnANDI:
		kind = otAndi
	case riscv.MnSRLI:
		kind = otSrli
	case riscv.MnADDIW:
		kind = otAddiw
	case riscv.MnLUI:
		kind = otLui
	case riscv.MnAUIPC:
		kind = otAuipc
	case riscv.MnMUL:
		kind = otMul
	case riscv.MnLD:
		kind = otLd
	case riscv.MnLW:
		kind = otLw
	}
	if in.Rd == riscv.X0 {
		// The integer kinds write c.X[rd] directly; an x0 destination
		// takes execStraight, whose setX keeps x0 zero.
		return otStraight
	}
	return kind
}

// specialize compiles one decoded instruction into an op. Branches start
// without a prediction (end set); trace compilation predicts them.
func specialize(in *riscv.Inst) traceOp {
	op := traceOp{
		kind: opKind(in), n: 1, mn: in.Mn,
		rd: uint8(in.Rd & 31), rs1: uint8(in.Rs1 & 31),
		rs2: uint8(in.Rs2 & 31), rs3: uint8(in.Rs3 & 31),
		imm:   in.Imm,
		store: in.IsStore() || in.Cat() == riscv.CatAMO,
	}
	switch op.kind {
	case otBr, otJal:
		op.aux, op.aux2, op.end = in.Addr+uint64(in.Imm), in.Next(), op.kind == otBr
	case otJalr, otDBIJT:
		op.aux2 = in.Next()
	case otLui:
		op.aux = uint64(in.Imm << 12)
	case otAuipc:
		op.aux = in.Addr + uint64(in.Imm<<12)
	case otScratchW, otScratchR:
		op.aux = uint64(in.CSR - dbiScratchBase)
	}
	return op
}

// fusion is one row of the macro-op fusion table: an op of kind a directly
// followed by an op of kind b merges into one op of kind to when fit
// accepts their operands. fit is called only when the kinds match and
// returns p rewired into the fused op's operand layout; fuse applies the
// bookkeeping every row shares (kind, constituent count, store flag; the
// costs live in the block's prefix sums). Ops pass by value: a pointer
// handed to a function value escapes, which would move buildBlock's
// per-instruction op to the heap.
type fusion struct {
	name     string // obs counter suffix: emu.fuse.<name>
	a, b, to uint8
	fit      func(p, q traceOp) (traceOp, bool)
}

// fusions is the one fusion table. Every fused op commits its constituents
// in program order, reading each operand only after the earlier
// constituents commit, so a fused op is bit-identical to sequential
// execution. Only the last constituent can fault or be split off, and only
// the first of a load or store pair can fault on its own.
var fusions = [...]fusion{
	{"lui_addi", otLui, otAddi, otConstPair, fitConst},
	{"auipc_addi", otAuipc, otAddi, otConstPair, fitConst},
	{"auipc_ld", otAuipc, otLd, otAuipcLd, fitConst},
	{"slli_add", otSlli, otAdd, otSlliAdd, func(p, q traceOp) (traceOp, bool) {
		// The other add operand is read after the shift commits; if both
		// operands are the shifted register it resolves to rd.
		other, ok := addOther(p, q)
		p.rs2, p.rs3 = other, q.rd
		return p, ok
	}},
	{"ld_pair", otLd, otLd, otLdPair, func(p, q traceOp) (traceOp, bool) {
		// The base must survive the first load (rd != base).
		p.rs3 = q.rd
		return p, q.rs1 == p.rs1 && p.rd != p.rs1 && q.imm == p.imm+8
	}},
	{"sd_pair", otSd, otSd, otSdPair, func(p, q traceOp) (traceOp, bool) {
		p.rs3 = q.rs2
		return p, q.rs1 == p.rs1 && q.imm == p.imm+8
	}},
	{"cmp_branch", otCmp, otBr, otCmpBr, func(p, q traceOp) (traceOp, bool) {
		// slt{,u,i,iu} rd feeding beq/bne rd, x0: the compare still writes
		// rd; the branch fields move into p.
		ok := (q.mn == riscv.MnBEQ || q.mn == riscv.MnBNE) && q.rs2 == 0 && q.rs1 != 0 && q.rs1 == p.rd
		p.mn, p.rs1, p.rs2, p.aux, p.aux2, p.end = q.mn, q.rs1, q.rs2, q.aux, q.aux2, q.end
		return p, ok
	}},
	{"auipc_jalr", otAuipc, otJalr, otAuipcJalr, func(p, q traceOp) (traceOp, bool) {
		// The patch ladder's long-distance jump (and every la+call
		// sequence) resolves to a constant target.
		ok := q.rs1 == p.rd
		p.imm, p.aux = int64(p.aux), (p.aux+uint64(q.imm))&^1
		p.rs3, p.aux2 = q.rd, q.aux2
		return p, ok
	}},
	{"mul_add", otMul, otAdd, otMulAdd, func(p, q traceOp) (traceOp, bool) {
		other, ok := addOther(p, q)
		p.rs4, p.rs3 = other, q.rd
		return p, ok
	}},
	{"slli_add_ld", otSlliAdd, otLd, otSlliAddLd, fitAddrLoad},
	{"slli_add_fld", otSlliAdd, otFld, otSlliAddFld, fitAddrLoad},
	{"addi_jal", otAddi, otJal, otAddiJal, func(p, q traceOp) (traceOp, bool) {
		p.rs3, p.aux, p.aux2 = q.rd, q.aux, q.aux2
		return p, true
	}},
	{"addi_br", otAddi, otBr, otAddiBr, func(p, q traceOp) (traceOp, bool) {
		// The branch operands move to rs3/rs4, read after the addi commits.
		p.mn, p.rs3, p.rs4, p.aux, p.aux2, p.end = q.mn, q.rs1, q.rs2, q.aux, q.aux2, q.end
		return p, true
	}},
}

// numFuseKinds indexes CPU.fuseCount and Metrics.Fused by fusions row.
const numFuseKinds = len(fusions)

// fitConst: lui/auipc rd, hi feeding addi or ld through rd. Both the
// constant and the addi result (or load address) fold at build time.
func fitConst(p, q traceOp) (traceOp, bool) {
	p.aux2, p.rs3 = p.aux+uint64(q.imm), q.rd
	return p, q.rs1 == p.rd
}

// addOther reports whether p's result feeds the add q, and q's other
// operand.
func addOther(p, q traceOp) (other uint8, ok bool) {
	if q.rs1 != p.rd {
		return q.rs1, q.rs2 == p.rd
	}
	return q.rs2, true
}

// fitAddrLoad: an slli+add address computation loaded through at once.
// The shift moves to aux, imm becomes the load offset, rs4 the load
// destination.
func fitAddrLoad(p, q traceOp) (traceOp, bool) {
	ok := q.rs1 == p.rs3
	p.aux, p.imm, p.rs4 = uint64(p.imm), q.imm, q.rd
	return p, ok
}

// fuse merges q into p when a fusions row matches and returns the row
// index, or -1 leaving p unchanged.
func fuse(p, q *traceOp) int {
	for k := range fusions {
		f := &fusions[k]
		if f.a != p.kind || f.b != q.kind {
			continue
		}
		m, ok := f.fit(*p, *q)
		if !ok {
			continue
		}
		m.kind = f.to
		m.n += q.n
		m.store = p.store || q.store
		*p = m
		return k
	}
	return -1
}
