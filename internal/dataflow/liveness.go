// Package dataflow is the DataflowAPI analog (paper Section 3.2.4). It
// annotates the parsed CFG with dataflow facts:
//
//   - register liveness, the analysis behind the paper's register-allocation
//     optimization ("when instrumentation needs registers, we attempt to use
//     dead registers ... if such registers are available, spilling the
//     contents can be avoided");
//   - stack-height analysis, which the SP-only frame stepper of the
//     stack walker consumes (RISC-V compilers usually drop the frame
//     pointer, Section 3.2.7);
//   - forward and backward slicing over register def-use chains.
//
// Instruction value semantics come from the semantics package — the
// compiled form of the SAIL-derived JSON pipeline.
package dataflow

import (
	"slices"
	"sync"

	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
)

// abiArgRegs are the integer and float argument registers.
var abiArgRegs = riscv.NewRegSet(
	riscv.RegA0, riscv.RegA1, riscv.RegA2, riscv.RegA3,
	riscv.RegA4, riscv.RegA5, riscv.RegA6, riscv.RegA7,
	riscv.F10, riscv.F11, riscv.F12, riscv.F13,
	riscv.F14, riscv.F15, riscv.F16, riscv.F17,
)

// abiCalleeSaved are the registers a function must preserve (plus sp).
var abiCalleeSaved = riscv.NewRegSet(
	riscv.RegSP, riscv.RegFP, riscv.RegS1, riscv.RegS2, riscv.RegS3,
	riscv.RegS4, riscv.RegS5, riscv.RegS6, riscv.RegS7, riscv.RegS8,
	riscv.RegS9, riscv.RegS10, riscv.RegS11,
	riscv.F8, riscv.F9, riscv.F18, riscv.F19, riscv.F20, riscv.F21,
	riscv.F22, riscv.F23, riscv.F24, riscv.F25, riscv.F26, riscv.F27,
)

// abiCallerSaved are the registers a call may clobber.
var abiCallerSaved = riscv.NewRegSet(
	riscv.RegRA, riscv.RegT0, riscv.RegT1, riscv.RegT2,
	riscv.RegA0, riscv.RegA1, riscv.RegA2, riscv.RegA3,
	riscv.RegA4, riscv.RegA5, riscv.RegA6, riscv.RegA7,
	riscv.RegT3, riscv.RegT4, riscv.RegT5, riscv.RegT6,
	riscv.F0, riscv.F1, riscv.F2, riscv.F3, riscv.F4, riscv.F5,
	riscv.F6, riscv.F7, riscv.F10, riscv.F11, riscv.F12, riscv.F13,
	riscv.F14, riscv.F15, riscv.F16, riscv.F17, riscv.F28, riscv.F29,
	riscv.F30, riscv.F31,
)

// exitLive is the conservative live set at function exits: preserved
// registers plus return values and the stack pointer.
var exitLive = abiCalleeSaved.Union(riscv.NewRegSet(
	riscv.RegA0, riscv.RegA1, riscv.F10, riscv.F11, riscv.RegRA,
))

// allRegs is the everything-live set used at unresolved control flow.
var allRegs = func() riscv.RegSet {
	var s riscv.RegSet
	for r := riscv.Reg(0); r < 64; r++ {
		s.Add(r)
	}
	return s
}()

// LivenessResult holds per-block live-in/live-out register sets, indexed
// by parse.Block.Index.
type LivenessResult struct {
	Fn      *parse.Function
	LiveIn  []riscv.RegSet
	LiveOut []riscv.RegSet

	lo, hi uint64 // Fn's extent

	// deadX holds every block's dead scratch registers in the code
	// generator's preference order, block i's at deadX[deadEnd[i-1]:deadEnd[i]].
	deadX   []riscv.Reg
	deadEnd []int32
}

// summary is a block's transfer function: live-in = gen ∪ (live-out − kill).
type summary struct{ gen, kill riscv.RegSet }

// summaries recycles Liveness's per-block transfer functions, which do not
// outlive the call and hold no pointers.
var summaries = sync.Pool{New: func() any { return new([]summary) }}

// Liveness runs the backward may-live analysis over the function.
func Liveness(fn *parse.Function) *LivenessResult {
	n := len(fn.Blocks)
	sets := make([]riscv.RegSet, 2*n)
	res := &LivenessResult{Fn: fn, LiveIn: sets[:n:n], LiveOut: sets[n:]}
	res.lo, res.hi = fn.Extent()

	// One backward walk per block composes its instructions' transfers;
	// the fixpoint then iterates over block sets only.
	buf := summaries.Get().(*[]summary)
	sums := slices.Grow((*buf)[:0], n)[:n]
	defer func() {
		*buf = sums
		summaries.Put(buf)
	}()
	for i, b := range fn.Blocks {
		var sm summary
		for j := len(b.Insts) - 1; j >= 0; j-- {
			gen, kill := instTransfer(res, b, j)
			sm.gen = gen.Union(sm.gen.Minus(kill))
			sm.kill = sm.kill.Union(kill)
		}
		sums[i] = sm
	}
	changed := true
	for changed {
		changed = false
		// Reverse block order converges faster for backward problems.
		for i := n - 1; i >= 0; i-- {
			out := blockExitLive(res, fn.Blocks[i])
			in := sums[i].gen.Union(out.Minus(sums[i].kill))
			if !out.Equal(res.LiveOut[i]) || !in.Equal(res.LiveIn[i]) {
				res.LiveOut[i] = out
				res.LiveIn[i] = in
				changed = true
			}
		}
	}

	// The dead scratch registers at every block start, in one array.
	res.deadEnd = make([]int32, n)
	total := 0
	for i := range n {
		total += countScratch(allRegs.Minus(res.LiveIn[i]))
		res.deadEnd[i] = int32(total)
	}
	res.deadX = make([]riscv.Reg, 0, total)
	for i := range n {
		res.deadX = appendScratch(res.deadX, allRegs.Minus(res.LiveIn[i]))
	}
	return res
}

// blockExitLive computes the live-out set from successor live-ins and the
// ABI effects of interprocedural edges.
func blockExitLive(res *LivenessResult, b *parse.Block) riscv.RegSet {
	var out riscv.RegSet
	switch b.Purpose {
	case parse.PurposeReturn:
		return exitLive
	case parse.PurposeTailCall:
		// The callee receives arguments and must itself preserve the
		// callee-saved set for our caller.
		return abiArgRegs.Union(abiCalleeSaved).Union(riscv.NewRegSet(riscv.RegRA))
	case parse.PurposeUnresolved:
		return allRegs
	}
	if t := intraCallTarget(res, b); t != 0 {
		// A linked jump into our own body: the code at the target reads
		// what this block leaves, so it flows like a jump. A target no
		// block of ours covers is unknown code: everything stays live.
		out = res.LiveBefore(t)
	}
	for _, e := range b.Out {
		if e.To == nil {
			if !e.Kind.Interprocedural() {
				// An intra edge whose block did not materialize (rare):
				// be conservative.
				return allRegs
			}
			continue
		}
		if e.Kind == parse.EdgeCall {
			continue // a real call is modeled at the call site
		}
		out = out.Union(res.LiveIn[e.To.Index])
	}
	return out
}

// intraCallTarget returns the target of b's call edge when it lands
// strictly inside the function — within its extent, but not its entry —
// and 0 otherwise. Parse classifies any linked jump to a resolved code
// address as a call (e.g. `la t1, L; jalr ra, 0(t1)` with L further down
// the same body), but the ABI call model would kill the caller-saved set
// that the code at L goes on to read. A call to the function's own entry
// is recursion and stays a call.
func intraCallTarget(res *LivenessResult, b *parse.Block) uint64 {
	if b.Purpose != parse.PurposeCall {
		return 0
	}
	for _, e := range b.Out {
		if e.Kind == parse.EdgeCall && e.Target != res.Fn.Entry &&
			e.Target >= res.lo && e.Target < res.hi {
			return e.Target
		}
	}
	return 0
}

// noFlow is what no instruction's transfer passes through: x0 and pc.
var noFlow = riscv.NewRegSet(riscv.X0, riscv.RegPC)

// instTransfer returns one instruction's transfer as the pair (gen, kill)
// of live-before = gen ∪ (live-after − kill): live = (live - def) ∪ use,
// with calls modeled by their ABI footprint. An intra-function call
// transfers like any other instruction; blockExitLive already added its
// target.
func instTransfer(res *LivenessResult, b *parse.Block, i int) (gen, kill riscv.RegSet) {
	inst := b.Insts[i]
	isCallSite := i == len(b.Insts)-1 && b.Purpose == parse.PurposeCall && intraCallTarget(res, b) == 0
	if isCallSite {
		// A call clobbers the caller-saved set and consumes argument
		// registers (conservatively all of them; without callee prototypes
		// the argument count is unknown).
		gen = abiArgRegs
		gen.Add(riscv.RegSP)
		if inst.IsJALR() {
			gen.Add(inst.Rs1)
		}
		return gen, abiCallerSaved
	}
	return inst.RegsRead().Minus(noFlow), inst.RegsWritten().Union(noFlow)
}

// stepInstBackward applies one instruction's transfer to live.
func stepInstBackward(res *LivenessResult, b *parse.Block, i int, live riscv.RegSet) riscv.RegSet {
	gen, kill := instTransfer(res, b, i)
	return gen.Union(live.Minus(kill))
}

// LiveBefore returns the live set immediately before the instruction at
// addr, or conservative everything-live if addr is not found.
func (res *LivenessResult) LiveBefore(addr uint64) riscv.RegSet {
	b, ok := res.Fn.BlockContaining(addr)
	if !ok {
		return allRegs
	}
	if addr == b.Start {
		// The fixpoint left LiveIn equal to the walk below over the whole
		// block.
		return res.LiveIn[b.Index]
	}
	live := res.LiveOut[b.Index]
	for i := len(b.Insts) - 1; i >= 0; i-- {
		if b.Insts[i].Addr < addr {
			break
		}
		live = stepInstBackward(res, b, i, live)
	}
	return live
}

// DeadBefore returns the registers provably dead immediately before the
// instruction at addr — the registers the paper's optimization hands to the
// code generator as free scratch space.
func (res *LivenessResult) DeadBefore(addr uint64) riscv.RegSet {
	return allRegs.Minus(res.LiveBefore(addr))
}

// DeadScratchX returns dead integer registers at addr in the code
// generator's preference order. At a block start it returns, without
// allocating, a window of the result's own array whose capacity equals its
// length, so an append by the caller copies.
func (res *LivenessResult) DeadScratchX(addr uint64) []riscv.Reg {
	if b, ok := res.Fn.BlockContaining(addr); ok && b.Start == addr && b.Index < len(res.deadEnd) {
		lo := int32(0)
		if b.Index > 0 {
			lo = res.deadEnd[b.Index-1]
		}
		hi := res.deadEnd[b.Index]
		return res.deadX[lo:hi:hi]
	}
	return appendScratch(nil, res.DeadBefore(addr))
}

// countScratch returns how many scratch candidates dead holds.
func countScratch(dead riscv.RegSet) int {
	return dead.Intersect(scratchSet).Count()
}

// scratchSet holds every scratch candidate.
var scratchSet = riscv.NewRegSet(riscv.ScratchCandidates...)

// appendScratch appends the scratch candidates dead holds, in preference
// order.
func appendScratch(out []riscv.Reg, dead riscv.RegSet) []riscv.Reg {
	for _, r := range riscv.ScratchCandidates {
		if dead.Contains(r) {
			out = append(out, r)
		}
	}
	return out
}
