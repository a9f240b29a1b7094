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
// built, so a trace inherits its superops (mul+add, slli+add+ld,
// addi+branch, addi+jal) without a second pass.
//
// Blocks and traces run through one executor, runStream: a switch over the
// op kinds with guest register numbers pre-masked. A block is simply a
// stream of one block that does not loop and whose closing branch has no
// prediction. Trace copies of memory ops add a one-entry page cache (one
// translation per distinct page per op, valid because mapped pages are
// immortal — see Memory).
//
// Bit-identity contract: Cycles, Instret, and the virtual clock derived
// from them must match per-instruction dispatch exactly, in every exit
// case. Cost is charged per constituent via per-op prefix sums (cumC/cumN):
// a side exit, fault, watch hit, or fused-pair split charges exactly the
// committed prefix (exitAt; a fused op's constituents before its last are
// preC), and the sampling gate uses the stream's worst-case single pass
// (maxCost), so a stream is only dispatched (and a pass only started) when
// even its worst case cannot cross the pending sample mark. SMC coherence
// rides the icache generation: a stream records the generation it was
// built under, stores re-check it (retiring the prefix and re-dispatching),
// and a stale block or trace is rebuilt or severed at dispatch.
//
// Traces contain no syscalls, counter-CSR reads, fence.i, or ebreaks —
// blocks ending in otExec end the walk — so Exited and the counters
// visible to CSR reads cannot change mid-trace. Scratch-CSR ops (DBI
// lookup stubs) run as ordinary ops, and a dbi.jt ends the trace the way an
// indirect jalr does.

// Trace build limits and the hotness trigger: a chain link must be taken
// traceHotMask+1 times before its target is considered a trace head.
const (
	traceHotMask   = 63
	traceMaxBlocks = 16
	traceMaxOps    = 256
)

// traceOp is one specialized instruction, fused op, or terminator (kinds in
// block.go). The fields the executor reads on the predicted path come first
// so they share a cache line; exit bookkeeping sits behind them and is only
// touched when a stream is left early.
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
	cache     bool  // memory ops: use the page cache (trace copies only)
	mn        riscv.Mnemonic
	imm       int64
	aux       uint64 // folded constant / shift amount / branch or jump target
	aux2      uint64 // second constant / fallthrough PC / link value
	pgTag     uint64 // page cache: page index + 1 (0 = empty)
	pg        *page

	// Exit bookkeeping (cold on the predicted path).
	cost     uint64      // cycles on the predicted path
	preC     uint64      // cycles of the constituents before the last one
	cumC     uint64      // predicted-path cycles before this op, within a pass
	cumN     uint64      // predicted-path constituents before this op
	in, tail *riscv.Inst // first and last constituent
}

// stream is one compiled op sequence: a superblock's, or a trace's (hot).
type stream struct {
	gen     uint64 // icache generation the stream was built under
	entry   uint64 // head PC (loop wrap target)
	endPC   uint64 // PC after the last op for streams that end by falling off
	loop    bool   // predicted path returns to entry: multi-pass dispatch
	hot     bool   // a compiled trace: the trace-tier counters apply
	ops     []traceOp
	passC   uint64 // cycles of one full predicted pass
	passN   uint64 // constituents of one full predicted pass
	maxCost uint64 // worst-case cycles of one pass (sampler gate)
}

// seal computes the per-op prefix sums, the pass totals, and the
// worst-case pass cost (every branch charged the taken penalty).
func (c *CPU) seal(s *stream) {
	var cc, cn, mc uint64
	for i := range s.ops {
		op := &s.ops[i]
		op.cumC, op.cumN = cc, cn
		cc += op.cost
		cn += uint64(op.n)
		mc += op.cost
		if isBranch(op.kind) && !op.predTaken {
			mc += c.Model.BranchTakenPenalty
		}
	}
	s.passC, s.passN, s.maxCost = cc, cn, mc
}

func isBranch(kind uint8) bool { return kind == otBr || kind == otCmpBr || kind == otAddiBr }

// maybeTrace is the hotness trigger, called from succFor when a chain link
// crosses a hit threshold. The target becomes a trace head unless it
// already has a trace, already failed to produce one, or tracing is off.
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
// returns to entry makes a looping trace.
func (c *CPU) buildTrace(head *block, entry uint64) {
	t := &stream{gen: c.icGen, entry: entry, hot: true}
	var visited [traceMaxBlocks]uint64
	pc, b := entry, head
	for blocks := 0; ; blocks++ {
		if b == nil || b.gen != c.icGen || blocks >= traceMaxBlocks ||
			len(t.ops)+len(b.ops) > traceMaxOps || b.ops[len(b.ops)-1].kind == otExec {
			// End the trace before this block; the dispatcher picks it up.
			t.endPC = pc
			break
		}
		visited[blocks] = pc
		n := len(t.ops)
		t.ops = append(t.ops, b.ops...)
		for i := n; i < len(t.ops); i++ {
			t.ops[i].cache = true
		}
		last := &t.ops[len(t.ops)-1]
		next := b.endPC
		if isBranch(last.kind) {
			taken, ok := c.predictBranch(b, last)
			if !ok {
				break // unpredictable: the trace leaves here either way
			}
			last.end, last.predTaken, next = false, taken, last.aux2
			if taken {
				last.cost += c.Model.BranchTakenPenalty
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
		if slices.Contains(visited[:blocks+1], next) {
			t.endPC = next
			break
		}
		pc, b = next, c.blockAt(next)
	}
	if len(t.ops) == 0 {
		head.trcFail = true
		return
	}
	c.seal(t)
	head.trc = t
	c.traceBuilds++
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
			case otStraight, otCmp:
				if err := c.execStraight(op.in); err != nil {
					return c.opFault(op, retired, 0, err)
				}
				if op.store && (c.watchHit || s.gen != c.icGen) {
					return c.storeExit(s, op, retired, op.n)
				}
			case otCSR:
				if err := c.csrOp(op.in); err != nil {
					return c.opFault(op, retired, 0, err)
				}
			case otAddi:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
			case otAdd:
				c.X[op.rd&31] = c.X[op.rs1&31] + c.X[op.rs2&31]
			case otSub:
				c.X[op.rd&31] = c.X[op.rs1&31] - c.X[op.rs2&31]
			case otSlli:
				c.X[op.rd&31] = c.X[op.rs1&31] << uint(op.imm)
			case otLui, otAuipc:
				c.X[op.rd&31] = op.aux
			case otMul:
				c.X[op.rd&31] = c.X[op.rs1&31] * c.X[op.rs2&31]
			case otLd:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.X[op.rd&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					v, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(op, retired, 0, err)
					}
					c.X[op.rd&31] = v
				}
			case otLw:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-4 {
					p, o := op.pg, a&pageMask
					c.X[op.rd&31] = sext32(binary.LittleEndian.Uint32(p[o:]))
				} else {
					v, err := c.traceRead32(op, a)
					if err != nil {
						return c.opFault(op, retired, 0, err)
					}
					c.X[op.rd&31] = sext32(v)
				}
			case otSd:
				if err := c.traceWrite64(op, c.X[op.rs1&31]+uint64(op.imm), c.X[op.rs2&31]); err != nil {
					return c.opFault(op, retired, 0, err)
				}
				if c.watchHit || s.gen != c.icGen {
					return c.storeExit(s, op, retired, 1)
				}
			case otSw:
				if err := c.traceWrite32(op, c.X[op.rs1&31]+uint64(op.imm), uint32(c.X[op.rs2&31])); err != nil {
					return c.opFault(op, retired, 0, err)
				}
				if c.watchHit || s.gen != c.icGen {
					return c.storeExit(s, op, retired, 1)
				}
			case otFld:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.F[op.rd&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					v, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(op, retired, 0, err)
					}
					c.F[op.rd&31] = v
				}
			case otFsd:
				if err := c.traceWrite64(op, c.X[op.rs1&31]+uint64(op.imm), c.F[op.rs2&31]); err != nil {
					return c.opFault(op, retired, 0, err)
				}
				if c.watchHit || s.gen != c.icGen {
					return c.storeExit(s, op, retired, 1)
				}
			case otFmaddd:
				c.F[op.rd&31] = math.Float64bits(math.FMA(
					math.Float64frombits(c.F[op.rs1&31]),
					math.Float64frombits(c.F[op.rs2&31]),
					math.Float64frombits(c.F[op.rs3&31])))
			case otFaddd:
				c.F[op.rd&31] = math.Float64bits(
					math.Float64frombits(c.F[op.rs1&31]) + math.Float64frombits(c.F[op.rs2&31]))
			case otFmuld:
				c.F[op.rd&31] = math.Float64bits(
					math.Float64frombits(c.F[op.rs1&31]) * math.Float64frombits(c.F[op.rs2&31]))
			case otConstPair:
				c.X[op.rd&31] = op.aux
				c.X[op.rs3&31] = op.aux2
			case otAuipcLd:
				c.X[op.rd&31] = op.aux // the auipc retires first
				v, err := c.traceRead64(op, op.aux2)
				if err != nil {
					return c.opFault(op, retired, 1, err)
				}
				c.X[op.rs3&31] = v
			case otSlliAdd:
				v := c.X[op.rs1&31] << uint(op.imm)
				c.X[op.rd&31] = v
				c.X[op.rs3&31] = v + c.X[op.rs2&31] // read after the shift commits
			case otLdPair:
				a := c.X[op.rs1&31] + uint64(op.imm)
				v, err := c.traceRead64(op, a)
				if err != nil {
					return c.opFault(op, retired, 0, err)
				}
				c.X[op.rd&31] = v
				if v, err = c.traceRead64(op, a+8); err != nil {
					return c.opFault(op, retired, 1, err)
				}
				c.X[op.rs3&31] = v
			case otSdPair:
				a := c.X[op.rs1&31] + uint64(op.imm)
				if err := c.traceWrite64(op, a, c.X[op.rs2&31]); err != nil {
					return c.opFault(op, retired, 0, err)
				}
				if c.watchHit || s.gen != c.icGen {
					// The first store hit the watch or invalidated cached
					// code (the second constituent's bytes may have just
					// been rewritten): retire it alone and re-dispatch.
					return c.storeExit(s, op, retired, 1)
				}
				if err := c.traceWrite64(op, a+8, c.X[op.rs3&31]); err != nil {
					return c.opFault(op, retired, 1, err)
				}
				if c.watchHit || s.gen != c.icGen {
					return c.storeExit(s, op, retired, 2)
				}
			case otMulAdd:
				v := c.X[op.rs1&31] * c.X[op.rs2&31]
				c.X[op.rd&31] = v
				c.X[op.rs3&31] = v + c.X[op.rs4&31] // read after the mul commits
			case otSlliAddLd:
				v := c.X[op.rs1&31] << uint(op.aux)
				c.X[op.rd&31] = v
				u := v + c.X[op.rs2&31]
				c.X[op.rs3&31] = u
				a := u + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.X[op.rs4&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					val, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(op, retired, 2, err)
					}
					c.X[op.rs4&31] = val
				}
			case otSlliAddFld:
				v := c.X[op.rs1&31] << uint(op.aux)
				c.X[op.rd&31] = v
				u := v + c.X[op.rs2&31]
				c.X[op.rs3&31] = u
				a := u + uint64(op.imm)
				if a>>pageBits+1 == op.pgTag && a&pageMask <= pageSize-8 {
					p, o := op.pg, a&pageMask
					c.F[op.rs4&31] = binary.LittleEndian.Uint64(p[o:])
				} else {
					val, err := c.traceRead64(op, a)
					if err != nil {
						return c.opFault(op, retired, 2, err)
					}
					c.F[op.rs4&31] = val
				}
			case otBr:
				if taken := branchTaken(op.mn, c.X[op.rs1&31], c.X[op.rs2&31]); taken != op.predTaken || op.end {
					return c.branchExit(op, retired, taken)
				}
			case otCmpBr:
				_ = c.execStraight(op.in) // slt{,u,i,iu} cannot fail
				if taken := branchTaken(op.mn, c.X[op.rs1&31], c.X[op.rs2&31]); taken != op.predTaken || op.end {
					return c.branchExit(op, retired, taken)
				}
			case otAddiBr:
				c.X[op.rd&31] = c.X[op.rs1&31] + uint64(op.imm)
				if taken := branchTaken(op.mn, c.X[op.rs3&31], c.X[op.rs4&31]); taken != op.predTaken || op.end {
					return c.branchExit(op, retired, taken)
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
			case otAuipcJalr:
				c.X[op.rd&31] = uint64(op.imm)
				if op.rs3 != 0 {
					c.X[op.rs3&31] = op.aux2
				}
			case otJalr:
				target := (c.X[op.rs1&31] + uint64(op.imm)) &^ 1
				if op.rd != 0 {
					c.X[op.rd&31] = op.aux2
				}
				c.PC = target
				c.Cycles += op.cumC + op.cost
				c.Instret += op.cumN + 1
				return retired + op.cumN + 1, stopNone
			case otDBIJT:
				target, err := c.dbiJT(op.in)
				if err != nil {
					return c.opFault(op, retired, 0, err)
				}
				c.PC = target
				c.Cycles += op.cumC + op.cost
				c.Instret += op.cumN + 1
				return retired + op.cumN + 1, stopNone
			case otExec:
				retired = c.exitAt(op, retired, 0)
				if op.in.Mn == riscv.MnEBREAK {
					// Like the slow path: stop before executing, PC at the ebreak.
					return retired, StopBreakpoint
				}
				exited, err := c.exec(op.in)
				switch {
				case err != nil:
					return retired, c.trap(op.in, err)
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
func (c *CPU) exitAt(op *traceOp, retired uint64, k uint8) uint64 {
	var cyc uint64
	switch k {
	case 0:
		c.PC = op.in.Addr
	case op.n:
		c.PC, cyc = op.tail.Next(), op.cost
	default:
		c.PC, cyc = op.tail.Addr, op.preC
	}
	c.Cycles += op.cumC + cyc
	c.Instret += op.cumN + uint64(k)
	return retired + op.cumN + uint64(k)
}

// opFault applies the partial-fault protocol: constituent k of op faulted,
// so it and everything after it have not retired and the PC points at it.
func (c *CPU) opFault(op *traceOp, retired uint64, k uint8, err error) (uint64, StopReason) {
	retired = c.exitAt(op, retired, k)
	in := op.in
	if k > 0 {
		in = op.tail
	}
	return retired, c.trap(in, err)
}

// storeExit leaves the stream after k constituents of op committed, the
// last a store that either hit the code watch or invalidated cached code
// (possibly this very stream). The Run loop reports the watch hit.
func (c *CPU) storeExit(s *stream, op *traceOp, retired uint64, k uint8) (uint64, StopReason) {
	if s.hot && !c.watchHit {
		c.traceSevers++
	}
	return c.exitAt(op, retired, k), stopNone
}

// branchExit leaves the stream through a conditional branch, charging the
// actual (not predicted) branch cost and setting the actual target.
func (c *CPU) branchExit(op *traceOp, retired uint64, taken bool) (uint64, StopReason) {
	cost := op.cost
	if op.predTaken {
		cost -= c.Model.BranchTakenPenalty
	}
	if !op.end {
		c.traceSideExits++
	}
	c.PC = op.aux2
	if taken {
		cost += c.Model.BranchTakenPenalty
		c.PC = op.aux
	}
	c.Cycles += op.cumC + cost
	c.Instret += op.cumN + uint64(op.n)
	return retired + op.cumN + uint64(op.n), stopNone
}

// branchTaken evaluates a conditional-branch condition on two operands.
func branchTaken(mn riscv.Mnemonic, rs1, rs2 uint64) bool {
	switch mn {
	case riscv.MnBEQ:
		return rs1 == rs2
	case riscv.MnBNE:
		return rs1 != rs2
	case riscv.MnBLT:
		return int64(rs1) < int64(rs2)
	case riscv.MnBGE:
		return int64(rs1) >= int64(rs2)
	case riscv.MnBLTU:
		return rs1 < rs2
	case riscv.MnBGEU:
		return rs1 >= rs2
	}
	return false
}

// Memory helpers: one-entry per-op page caches. The hit path (tag compare
// + in-page access) is inlined in runStream; these outlined helpers handle
// misses — refilling through the ordinary TLB path so translation stats
// stay attributed, caching the page, which can never go stale because
// mapped pages are immortal — and accesses that straddle a page or come
// from a block's own ops, which take the generic accessors. Only trace
// copies cache: their ops repeat, while a block's share the TLB with the
// slow path.

func (c *CPU) traceRead64(op *traceOp, a uint64) (uint64, error) {
	if op.cache && a&pageMask <= pageSize-8 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.readPage(a)
			if p == nil {
				return 0, &MemFault{Addr: a}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		return binary.LittleEndian.Uint64(p[o:]), nil
	}
	return c.Mem.Read64(a)
}

func (c *CPU) traceRead32(op *traceOp, a uint64) (uint32, error) {
	if op.cache && a&pageMask <= pageSize-4 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.readPage(a)
			if p == nil {
				return 0, &MemFault{Addr: a}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		return binary.LittleEndian.Uint32(p[o:]), nil
	}
	return c.Mem.Read32(a)
}

func (c *CPU) traceWrite64(op *traceOp, a, v uint64) error {
	if op.cache && a&pageMask <= pageSize-8 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.writePage(a)
			if p == nil {
				return &MemFault{Addr: a, Write: true}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		binary.LittleEndian.PutUint64(p[o:], v)
		return c.storeCheck(a, 8, nil)
	}
	return c.storeCheck(a, 8, c.Mem.Write64(a, v))
}

func (c *CPU) traceWrite32(op *traceOp, a uint64, v uint32) error {
	if op.cache && a&pageMask <= pageSize-4 {
		if a>>pageBits+1 != op.pgTag {
			p := c.Mem.writePage(a)
			if p == nil {
				return &MemFault{Addr: a, Write: true}
			}
			op.pgTag, op.pg = a>>pageBits+1, p
		}
		p, o := op.pg, a&pageMask
		binary.LittleEndian.PutUint32(p[o:], v)
		return c.storeCheck(a, 4, nil)
	}
	return c.storeCheck(a, 4, c.Mem.Write32(a, v))
}
