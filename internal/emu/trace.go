package emu

import (
	"encoding/binary"
	"math"
	"slices"

	"rvdyn/internal/riscv"
)

// Trace compilation and the fast-tier executor.
//
// Superblock chaining (block.go) already dispatches block→block through
// cached successor links, but every block boundary still pays the Run
// loop's bookkeeping (budget/sample gates, chain resolution). For hot loops
// that is the remaining cost. A trace flattens a hot chain of superblocks
// into one runtime-built op stream: the blocks' ops are copied end to end,
// and each block-closing conditional branch is compiled in its
// profiled-likely direction, with a side exit that spills back to the
// normal dispatcher. A looping trace (its predicted path returns to its own
// entry) executes multiple passes per dispatch, hoisting the Run loop's
// gates to one check per pass. Fusion already happened when the blocks were
// built, so a trace inherits its superops (mul+add, slli+add+fld,
// addi+branch, addi+jal) without a second pass.
//
// Blocks and traces run through one executor, runStream: a switch over the
// op kinds with guest register numbers pre-masked. A block is simply a
// stream of one block that does not loop and whose closing branch has no
// prediction. Every memory op carries a one-entry page cache (one
// translation per distinct page per op, valid because mapped pages are
// immortal — see Memory), and a trace copy inherits its block op's.
//
// Op layout: a traceOp is 48 bytes and holds only what the predicted path
// reads — kind, registers, flags, immediate, two folded constants and the
// page cache. Everything an exit needs lives beside the stream, keyed by
// two bytes of the op: at, the index of its first constituent in the
// block it was built in, and seg, the entry of stream.segs that block
// occupies (a block's one segment is itself). From a block come its
// decoded instructions (an op's constituents are insts[at:at+n]) and its
// cycle prefix sums (cyc); from a segment the trace's constituents before
// the block and its cycles before the block's closing op. So a trace copy
// shares its blocks' bookkeeping instead of carrying its own, and the hot
// exits — branches and jumps, which always close a block — read the
// segment alone (endExit).
//
// Bit-identity contract: Cycles, Instret, and the virtual clock derived
// from them must match per-instruction dispatch exactly, in every exit
// case. Cost is charged per constituent via those prefix sums: a side
// exit, fault, or watch hit charges exactly the committed prefix (exitAt;
// a fused op's constituents before its last are preC), and the sampling
// gate uses the stream's worst-case single pass (maxCost), so a stream is
// only dispatched (and a pass only started) when even its worst case
// cannot cross the pending sample mark. SMC coherence
// rides the icache generation: a stream records the generation it was
// built under, stores re-check it (retiring the prefix and re-dispatching),
// and a stale block or trace is rebuilt or severed at dispatch. A write
// from outside the process (a debugger chaining a DBI exit stub) retires
// just the blocks it overlaps, unless a trace copied one of them; the
// others keep their ops and restart their profiles (CPU.epoch), so traces
// form from the behaviour after the write, as after a generation bump.
//
// Traces contain no syscalls, counter-CSR reads, fence.i, or ebreaks —
// blocks ending in otExec end the walk — so Exited and the counters
// visible to CSR reads cannot change mid-trace. What a DBI engine emits
// runs at the speed of ordinary code: dbi.acc has its own op kind, the
// lookup stubs' scratch-CSR ops stay in the stream through csrOp, and a
// dbi.jt ends the trace the way an indirect jalr does. Every trace exit
// chains like a block exit: a side exit through its own segment's
// successor link, a dbi.jt or jalr or falling off the end through the
// stream's two. Those links feed the same hotness trigger, so a hot return
// site a trace keeps leaving to becomes a trace head in its turn.

// Trace build limits and the hotness trigger: a chain link must be taken
// traceHotMask+1 times before its target is considered a trace head.
const (
	traceHotMask   = 63
	traceMaxBlocks = 16
	traceMaxOps    = 256
)

// traceOp is one specialized instruction, fused op, or terminator (kinds in
// block.go): 48 bytes, only what the executor reads on the predicted path.
// An op's constituents are insts[at : at+n] of the block it was built in
// (instOf), and that block's cycle prefix sums give its cost and the cost
// before it, so an exit works out its charge from at alone (exitOf). A
// trace op also names the segment it was copied into (seg). A memory op
// caches one page: pg, tagged with page index + 1 in aux2 (0 = empty).
type traceOp struct {
	kind      uint8
	n         uint8 // constituents this op retires
	rd        uint8
	rs1, rs2  uint8
	rs3       uint8 // third source / second destination (pairs, superops)
	rs4       uint8 // fourth register (superops)
	predTaken bool  // branches: the direction compiled as the trace's path
	end       bool  // branches: no prediction, leave the stream either way
	store     bool  // writes memory: check the watch and generation after
	at        uint8 // index of the first constituent in its block's insts
	seg       uint8 // trace ops: index of the copied block in stream.segs
	mn        riscv.Mnemonic
	imm       int64
	aux       uint64 // folded constant / shift amount / branch or jump target
	aux2      uint64 // second constant / fallthrough PC / link value / page tag
	pg        *page  // page cache (memory ops)
}

// stream is one compiled op sequence: a superblock's, or a trace's (hot).
type stream struct {
	gen     uint64 // icache generation the stream was built under
	entry   uint64 // head PC (loop wrap target)
	endPC   uint64 // PC after the last op for streams that end by falling off
	loop    bool   // predicted path returns to entry: multi-pass dispatch
	hot     bool   // a compiled trace: the trace-tier counters apply
	epoch   uint32 // blocks: CPU.epoch their profile belongs to
	ops     []traceOp
	passC   uint64 // cycles of one full predicted pass
	passN   uint64 // constituents of one full predicted pass
	maxCost uint64 // worst-case cycles of one pass (sampler gate)

	// Blocks: the decoded run the ops point into and its cycle prefix sums
	// (cyc[k] is the cost of insts[:k]; model costs are small constants,
	// so a block's sum fits 32 bits).
	insts []riscv.Inst
	cyc   []uint32
	// segs lists the blocks the ops were copied from, in path order: a
	// trace's path, or a block's one segment, itself.
	segs []traceSeg

	// succ caches up to two resolved successors of the stream's exits
	// (taken/fallthrough of a block's closing branch, the last two
	// indirect targets, a trace's side exits and end), filled lazily by
	// chainNext and honoured only at the current generation.
	succ   [2]blockLink
	succRR uint8 // round-robin victim index
}

// traceSeg is one block copied into a trace: its stream, the trace's
// predicted-path constituents before its first op and cycles before its
// closing op, that op's cost, and the successor link of the side exit its
// closing branch takes. The hot exits (endExit) read nothing else.
type traceSeg struct {
	src             *stream
	cumN            uint64
	lastC, lastCost uint64
	side            [1]blockLink
}

// opExit is one op's exit bookkeeping: its cycles and those of its
// constituents before the last, the predicted-path cycles and constituents
// before it within a pass, and its last constituent.
type opExit struct {
	cost, preC, cumC, cumN uint64
	tail                   *riscv.Inst
}

// instOf returns op's first constituent. runStream needs it only on ops
// that call out anyway (execStraight, csrOp, exec, faults), so it stays
// out of line rather than adding to the executor's body at each of them.
//
//go:noinline
func (s *stream) instOf(op *traceOp) *riscv.Inst {
	return &s.segs[op.seg].src.insts[op.at]
}

// exitOf works out op's exit bookkeeping from the block it was built in. A
// trace branch's cost here is the block's, without the taken penalty a
// predicted-taken copy adds to the pass.
func (s *stream) exitOf(op *traceOp) opExit {
	sg := &s.segs[op.seg]
	src, j, n := sg.src, int(op.at), int(op.n)
	c0 := uint64(src.cyc[j])
	return opExit{
		cost: uint64(src.cyc[j+n]) - c0,
		preC: uint64(src.cyc[j+n-1]) - c0,
		// The segment's cycles before the block's last op, less the
		// block's own, are the trace's cycles before the block.
		cumC: sg.lastC - (src.passC - sg.lastCost) + c0,
		cumN: sg.cumN + uint64(j),
		tail: &src.insts[j+n-1],
	}
}

// endExit is what leaving the stream through op, an op that ends its block
// (a branch or jump, the hot exits) and retired in full, charges: the
// trace's cycles and constituents up to and including it, read from its
// segment alone. A taken branch adds its penalty on top.
func (sg *traceSeg) endExit(op *traceOp) (cycles, insts uint64) {
	return sg.lastC + sg.lastCost, sg.cumN + uint64(op.at) + uint64(op.n)
}

// seal computes a block's pass totals, worst-case pass cost (its closing
// branch, if any, charged the taken penalty) and its one segment, held in
// self.
func (c *CPU) seal(b *block) {
	s := &b.stream
	n := len(s.insts)
	last := &s.ops[len(s.ops)-1]
	s.passC, s.passN = uint64(s.cyc[n]), uint64(n)
	s.maxCost = s.passC
	if isBranch(last.kind) {
		s.maxCost += c.Model.BranchTakenPenalty
	}
	lastC := uint64(s.cyc[last.at])
	b.self[0] = traceSeg{src: s, lastC: lastC, lastCost: s.passC - lastC}
	s.segs = b.self[:]
}

func isBranch(kind uint8) bool { return kind == otBr || kind == otAddiBr }

// maybeTrace is the hotness trigger, called from chainNext when a chain link
// out of a block or a trace crosses a hit threshold. The target becomes a
// trace head unless it already has a trace, already failed to produce one,
// or tracing is off.
func (c *CPU) maybeTrace(b *block, pc uint64) {
	if c.Dispatch != DispatchTrace || b.trc != nil || b.trcFail {
		return
	}
	c.buildTrace(b, pc)
}

// buildTrace walks the predicted chain from the head block at entry and
// compiles it into a trace, attaching it to head (or marking the head
// untraceable). The walk follows constant-target transfers and the
// profiled-likely side of conditional branches, and stops at indirect
// jumps (jalr, dbi.jt), unpredictable branches, otExec blocks (syscalls/
// counter CSRs/ebreak), a revisited PC, or the build caps. A walk that
// returns to entry makes a looping trace. Like buildBlock it builds in two
// passes: the walk records the blocks and their predictions, then the ops
// are copied into one slice of exactly the trace's size.
func (c *CPU) buildTrace(head *block, entry uint64) {
	t := &stream{gen: c.icGen, entry: entry, hot: true}
	var (
		visited [traceMaxBlocks]uint64
		path    [traceMaxBlocks]traceStep
	)
	n, nops := 0, 0
	pc, b := entry, head
	for {
		if b == nil || b.gen != c.icGen || n >= traceMaxBlocks ||
			nops+len(b.ops) > traceMaxOps || b.ops[len(b.ops)-1].kind == otExec {
			// End the trace before this block; the dispatcher picks it up.
			t.endPC = pc
			break
		}
		visited[n] = pc
		p := &path[n]
		p.b = b
		n++
		nops += len(b.ops)
		last := &b.ops[len(b.ops)-1]
		next := b.endPC
		if isBranch(last.kind) {
			if p.taken, p.predict = c.predictBranch(b, last); !p.predict {
				break // unpredictable: the trace leaves here either way
			}
			next = last.aux2
			if p.taken {
				next = last.aux
			}
		}
		if last.kind == otJalr || last.kind == otDBIJT {
			break
		}
		if next == entry {
			t.loop = true
			break
		}
		if slices.Contains(visited[:n], next) {
			t.endPC = next
			break
		}
		pc, b = next, c.walkTo(b, next)
	}
	if n == 0 {
		head.trcFail = true
		return
	}
	t.ops = make([]traceOp, 0, nops)
	t.segs = make([]traceSeg, n)
	for k, p := range path[:n] {
		bs := &p.b.self[0]
		t.segs[k] = traceSeg{src: &p.b.stream, cumN: t.passN,
			lastC: t.passC + bs.lastC, lastCost: bs.lastCost}
		p.b.inTrace = true
		t.passC += p.b.passC
		t.passN += p.b.passN
		t.maxCost += p.b.maxCost
		i := len(t.ops)
		t.ops = append(t.ops, p.b.ops...)
		for j := i; j < len(t.ops); j++ {
			t.ops[j].seg = uint8(k)
		}
		if p.predict {
			last := &t.ops[len(t.ops)-1]
			last.end, last.predTaken = false, p.taken
			if p.taken {
				t.passC += c.Model.BranchTakenPenalty
			}
		}
	}
	head.trc = t
	c.traceBuilds++
}

// walkTo returns the current block at pc, which follows b on a trace walk:
// through b's cached successor link when it has one (no block-map lookup,
// and no hit counted on the link), else through blockAt.
func (c *CPU) walkTo(b *block, pc uint64) *block {
	for i := range b.succ {
		if l := &b.succ[i]; l.b != nil && l.pc == pc && l.b.gen == c.icGen {
			if l.b.epoch != c.epoch {
				c.restart(l.b)
			}
			return l.b
		}
	}
	return c.blockAt(pc)
}

// traceStep is one block on a trace's walked path and the compiled
// direction of its closing branch, when that branch was predicted.
type traceStep struct {
	b              *block
	taken, predict bool
}

// predictBranch picks the likely direction of b's closing branch br from
// the hit counts on b's cached successor links. A direction with no
// resolved link has never been taken since the block was built; prefer the
// observed one.
func (c *CPU) predictBranch(b *block, br *traceOp) (taken, ok bool) {
	var th, fh uint32
	tv, fv := false, false
	for i := range b.succ {
		s := &b.succ[i]
		if s.b == nil {
			continue
		}
		if s.pc == br.aux {
			th, tv = s.hits, true
		}
		if s.pc == br.aux2 {
			fh, fv = s.hits, true
		}
	}
	switch {
	case tv && (!fv || th >= fh):
		return true, true
	case fv:
		return false, true
	}
	return false, false
}

// runStream executes s, which must start at the current PC under the
// current icache generation, with the dispatch gates (budget ≥ passN,
// sampler clearance for maxCost) already checked for the first pass. It
// returns the constituents retired and a stop reason (stopNone to continue
// dispatching). Every exit path leaves Cycles/Instret/PC exactly as
// per-instruction dispatch would. Load hit paths are inlined against the
// per-op page cache; misses, stores, faults, and every exit go through the
// outlined helpers.
func (c *CPU) runStream(s *stream, budget uint64, limited bool) (retired uint64, stop StopReason) {
	ops := s.ops
	for {
		for i := 0; i < len(ops); i++ {
			op := &ops[i]
			switch op.kind {
			case otStraight:
				if err := c.execStraight(s.instOf(op)); err != nil {
					return c.opFault(s, op, retired, 0, err)
				}
				if op.store && (c.watchHit || s.gen != c.icGen) {
					return c.storeExit(s, op, retired)
				}
			case otCSR:
				if err := c.csrOp(s.instOf(op)); err != nil {
					return c.opFault(s, op, retired, 0, err)
				}
			case otDBIAcc:
				if dc := c.DBIComp; dc == nil || !dc.apply(op.imm+2048) {
					return c.opFault(s, op, retired, 0, c.execStraight(s.instOf(op)))
				}
			case otAddi:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
			case otAdd:
				c.X[op.rd&31] = c.X[op.rs1&31] + c.X[op.rs2&31]
			case otSlli:
				c.X[op.rd&31] = c.X[op.rs1&31] << uint(op.imm)
			case otAddiw:
				c.X[op.rd&31] = sext32(uint32(c.X[op.rs1&31]) + uint32(op.imm))
			case otLui:
				c.X[op.rd&31] = op.aux
			case otMul:
				c.X[op.rd&31] = c.X[op.rs1&31] * c.X[op.rs2&31]
			case otLd:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.aux2 && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.X[op.rd&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					v, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(s, op, retired, 0, err)
					}
					c.X[op.rd&31] = v
				}
			case otSd:
				if err := c.traceWrite64(op, c.X[op.rs1&31]+uint64(op.imm), c.X[op.rs2&31]); err != nil {
					return c.opFault(s, op, retired, 0, err)
				}
				if c.watchHit || s.gen != c.icGen {
					return c.storeExit(s, op, retired)
				}
			case otFld:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.aux2 && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.F[op.rd&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					v, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(s, op, retired, 0, err)
					}
					c.F[op.rd&31] = v
				}
			case otFsd:
				if err := c.traceWrite64(op, c.X[op.rs1&31]+uint64(op.imm), c.F[op.rs2&31]); err != nil {
					return c.opFault(s, op, retired, 0, err)
				}
				if c.watchHit || s.gen != c.icGen {
					return c.storeExit(s, op, retired)
				}
			case otFmaddd:
				c.F[op.rd&31] = math.Float64bits(math.FMA(
					math.Float64frombits(c.F[op.rs1&31]),
					math.Float64frombits(c.F[op.rs2&31]),
					math.Float64frombits(c.F[op.rs3&31])))
			case otConstPair:
				c.X[op.rd&31] = op.aux
				c.X[op.rs3&31] = op.aux2
			case otSlliAdd:
				v := c.X[op.rs1&31] << uint(op.imm)
				c.X[op.rd&31] = v
				c.X[op.rs3&31] = v + c.X[op.rs2&31] // read after the shift commits
			case otMulAdd:
				v := c.X[op.rs1&31] * c.X[op.rs2&31]
				c.X[op.rd&31] = v
				c.X[op.rs3&31] = v + c.X[op.rs4&31] // read after the mul commits
			case otSlliAddFld:
				v := c.X[op.rs1&31] << uint(op.aux)
				c.X[op.rd&31] = v
				u := v + c.X[op.rs2&31]
				c.X[op.rs3&31] = u
				a := u + uint64(op.imm)
				if a>>pageBits+1 == op.aux2 && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.F[op.rs4&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					val, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(s, op, retired, 2, err)
					}
					c.F[op.rs4&31] = val
				}
			case otBr:
				if taken := branchTaken(op.mn, c.X[op.rs1&31], c.X[op.rs2&31]); taken != op.predTaken || op.end {
					return c.branchExit(s, op, retired, taken)
				}
			case otAddiBr:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
				if taken := branchTaken(op.mn, c.X[op.rs3&31], c.X[op.rs4&31]); taken != op.predTaken || op.end {
					return c.branchExit(s, op, retired, taken)
				}
			case otJal:
				if op.rd != 0 {
					c.X[op.rd&31] = op.aux2
				}
			case otAddiJal:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
				if op.rs3 != 0 {
					c.X[op.rs3&31] = op.aux2
				}
			case otJalr:
				target := (c.X[op.rs1&31] + uint64(op.imm)) &^ 1
				if op.rd != 0 {
					c.X[op.rd&31] = op.aux2
				}
				return c.jumpExit(s, op, retired, target)
			case otDBIJT:
				target, ok := c.dbiJT(op.imm)
				if !ok {
					return c.opFault(s, op, retired, 0, c.dbiJTFault(s.instOf(op)))
				}
				return c.jumpExit(s, op, retired, target)
			case otExec:
				retired = c.exitAt(s, op, retired, 0)
				in := s.instOf(op)
				if in.Mn == riscv.MnEBREAK {
					// Like the slow path: stop before executing, PC at the ebreak.
					return retired, StopBreakpoint
				}
				exited, err := c.exec(in)
				switch {
				case err != nil:
					return retired, c.trap(in, err)
				case exited:
					return retired + 1, StopExit
				}
				return retired + 1, stopNone
			}
		}
		// Full pass completed.
		c.Cycles += s.passC
		c.Instret += s.passN
		retired += s.passN
		if s.hot {
			c.tracePasses++
		}
		if !s.loop {
			c.PC = s.endPC
			return retired, stopNone
		}
		// Next pass only if the same gates the dispatcher checks still hold;
		// otherwise exit at the pass boundary (a block boundary, so the
		// per-instruction path resumes at the identical state).
		if limited && budget-retired < s.passN ||
			c.SamplePeriod != 0 && c.SampleClock()+s.maxCost >= c.sampleNext {
			c.PC = s.entry
			return retired, stopNone
		}
	}
}

// exitAt leaves the stream inside op with its first k constituents retired
// (k is 0, n-1, or n) on top of the committed prefix, the PC on the next
// constituent, and returns the updated retired count.
func (c *CPU) exitAt(s *stream, op *traceOp, retired uint64, k uint8) uint64 {
	x := s.exitOf(op)
	var cyc uint64
	switch k {
	case 0:
		c.PC = s.instOf(op).Addr
	case op.n:
		c.PC, cyc = x.tail.Next(), x.cost
	default:
		c.PC, cyc = x.tail.Addr, x.preC
	}
	c.Cycles += x.cumC + cyc
	c.Instret += x.cumN + uint64(k)
	return retired + x.cumN + uint64(k)
}

// opFault applies the partial-fault protocol: constituent k of op faulted,
// so it and everything after it have not retired and the PC points at it.
func (c *CPU) opFault(s *stream, op *traceOp, retired uint64, k uint8, err error) (uint64, StopReason) {
	retired = c.exitAt(s, op, retired, k)
	in := s.instOf(op)
	if k > 0 {
		in = s.exitOf(op).tail
	}
	return retired, c.trap(in, err)
}

// storeExit leaves the stream after op committed, its store (always its
// last constituent) having either hit the code watch or invalidated cached
// code (possibly this very stream). The Run loop reports the watch hit.
func (c *CPU) storeExit(s *stream, op *traceOp, retired uint64) (uint64, StopReason) {
	if s.hot && !c.watchHit {
		c.traceSevers++
	}
	return c.exitAt(s, op, retired, op.n), stopNone
}

// jumpExit leaves the stream through the indirect jump op (jalr or
// dbi.jt), which retired, to target.
func (c *CPU) jumpExit(s *stream, op *traceOp, retired, target uint64) (uint64, StopReason) {
	cyc, n := s.segs[op.seg].endExit(op)
	c.PC = target
	c.Cycles += cyc
	c.Instret += n
	return retired + n, stopNone
}

// branchExit leaves the stream through a conditional branch, charging the
// actual branch cost and setting the actual target.
func (c *CPU) branchExit(s *stream, op *traceOp, retired uint64, taken bool) (uint64, StopReason) {
	sg := &s.segs[op.seg]
	cyc, n := sg.endExit(op)
	if !op.end {
		c.traceSideExits++
		c.sideSeg = sg
	}
	c.PC = op.aux2
	if taken {
		cyc += c.Model.BranchTakenPenalty
		c.PC = op.aux
	}
	c.Cycles += cyc
	c.Instret += n
	return retired + n, stopNone
}

// Memory helpers: one-entry per-op page caches. The load hit path (tag
// compare + in-page access) is inlined in runStream; these outlined helpers
// handle load misses and every store, refilling the cache on a miss. A
// cached page can never go stale because mapped pages are immortal (see
// Memory). Accesses that straddle a page take the generic accessors.

func (c *CPU) traceRead64(op *traceOp, a uint64) (uint64, error) {
	if a&pageMask <= pageSize-8 {
		if a>>pageBits+1 != op.aux2 {
			p := c.Mem.pageOf(a)
			if p == nil {
				return 0, &MemFault{Addr: a}
			}
			op.aux2, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		return binary.LittleEndian.Uint64(p[o:]), nil
	}
	return c.Mem.Read64(a)
}

func (c *CPU) traceWrite64(op *traceOp, a, v uint64) error {
	if a&pageMask <= pageSize-8 {
		if a>>pageBits+1 != op.aux2 {
			p := c.Mem.pageOf(a)
			if p == nil {
				return &MemFault{Addr: a, Write: true}
			}
			op.aux2, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		binary.LittleEndian.PutUint64(p[o:], v)
		return c.storeCheck(a, 8, nil)
	}
	return c.storeCheck(a, 8, c.Mem.Write64(a, v))
}
