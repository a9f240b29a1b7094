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
}

// Liveness runs the backward may-live analysis over the function.
func Liveness(fn *parse.Function) *LivenessResult {
	res := &LivenessResult{
		Fn:      fn,
		LiveIn:  make([]riscv.RegSet, len(fn.Blocks)),
		LiveOut: make([]riscv.RegSet, len(fn.Blocks)),
	}
	res.lo, res.hi = fn.Extent()
	changed := true
	for changed {
		changed = false
		// Reverse block order converges faster for backward problems.
		for i := len(fn.Blocks) - 1; i >= 0; i-- {
			b := fn.Blocks[i]
			out := blockExitLive(res, b)
			in := stepBlockBackward(res, b, out)
			if !out.Equal(res.LiveOut[i]) || !in.Equal(res.LiveIn[i]) {
				res.LiveOut[i] = out
				res.LiveIn[i] = in
				changed = true
			}
		}
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

// stepBlockBackward applies the per-instruction transfer over the block.
func stepBlockBackward(res *LivenessResult, b *parse.Block, live riscv.RegSet) riscv.RegSet {
	for i := len(b.Insts) - 1; i >= 0; i-- {
		live = stepInstBackward(res, b, i, live)
	}
	return live
}

// stepInstBackward handles one instruction: live = (live - def) ∪ use, with
// calls modeled by their ABI footprint. An intra-function call transfers
// like any other instruction; blockExitLive already added its target.
func stepInstBackward(res *LivenessResult, b *parse.Block, i int, live riscv.RegSet) riscv.RegSet {
	inst := b.Insts[i]
	isCallSite := i == len(b.Insts)-1 && b.Purpose == parse.PurposeCall && intraCallTarget(res, b) == 0
	if isCallSite {
		// A call clobbers the caller-saved set and consumes argument
		// registers (conservatively all of them; without callee prototypes
		// the argument count is unknown).
		live = live.Minus(abiCallerSaved)
		live = live.Union(abiArgRegs)
		live.Add(riscv.RegSP)
		if inst.IsJALR() {
			live.Add(inst.Rs1)
		}
		return live
	}
	live = live.Minus(inst.RegsWritten())
	live = live.Union(inst.RegsRead())
	live.Remove(riscv.X0)
	live.Remove(riscv.RegPC)
	return live
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
// generator's preference order.
func (res *LivenessResult) DeadScratchX(addr uint64) []riscv.Reg {
	dead := res.DeadBefore(addr)
	var out []riscv.Reg
	for _, r := range riscv.ScratchCandidates {
		if dead.Contains(r) {
			out = append(out, r)
		}
	}
	return out
}
