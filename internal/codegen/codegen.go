// Package codegen is the CodeGenAPI analog (paper Section 3.2.5): it lowers
// the machine-independent snippet ASTs to RISC-V instruction sequences.
//
// Two concerns from the paper shape the design:
//
//   - Extension awareness: the generator consults the mutatee's extension
//     set (from SymtabAPI) and never emits instructions the target may not
//     implement — e.g. integer multiply lowers to a shift-add loop when the
//     M extension is absent, and immediates materialize through the
//     lui/addi/slli sequences the paper describes because RISC-V has no
//     single load-immediate instruction.
//
//   - Register allocation: in ModeDeadRegister the generator takes scratch
//     space from registers liveness has proven dead at the point, avoiding
//     spills entirely when enough are available — the optimization the
//     paper credits for the RISC-V overhead numbers beating x86. In
//     ModeSpillAlways (the pre-optimization x86 behaviour) every scratch
//     register is saved to and restored from a dedicated stack frame.
package codegen

import (
	"fmt"
	"slices"

	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
)

// Mode selects the register-allocation strategy.
type Mode int

const (
	// ModeDeadRegister uses liveness-proven dead registers as free scratch,
	// spilling only when the dead set is too small.
	ModeDeadRegister Mode = iota
	// ModeSpillAlways saves and restores every scratch register around the
	// snippet (the baseline the paper's x86 column measures).
	ModeSpillAlways
)

func (m Mode) String() string {
	if m == ModeSpillAlways {
		return "spill-always"
	}
	return "dead-register"
}

// ParseMode returns the mode a tool names: "dead" (also the empty name) or
// "spill".
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "dead":
		return ModeDeadRegister, nil
	case "spill":
		return ModeSpillAlways, nil
	}
	return 0, fmt.Errorf("unknown codegen mode %q", name)
}

// Options configures one generation.
type Options struct {
	// Arch is the mutatee's extension set; zero means RV64GC.
	Arch riscv.ExtSet
	// Mode selects dead-register vs spill-always allocation.
	Mode Mode
	// DeadRegs lists integer registers proven dead at the insertion point
	// (ignored in ModeSpillAlways).
	DeadRegs []riscv.Reg
}

// Result carries the generated code and cost accounting for the ablation
// benchmarks.
type Result struct {
	Insts   []riscv.Inst
	Spilled []riscv.Reg // registers saved/restored around the body
	Scratch []riscv.Reg // scratch registers used by the body
}

// Generate lowers a snippet for insertion at a point.
func Generate(sn snippet.Snippet, opts Options) (*Result, error) {
	// The result and the buffer that lowers it share one allocation, and
	// the result's register lists are the buffer's own. Most snippets,
	// counter increments among them, lower to at most 8 instructions;
	// starting there skips the 1→2→4→8 regrowth of the instruction slice.
	r := &struct {
		res Result
		buf Buffer
	}{buf: Buffer{Insts: make([]riscv.Inst, 0, 8)}}
	if err := r.buf.Append(sn, opts); err != nil {
		return nil, err
	}
	g := &r.buf.g
	r.res = Result{Insts: slices.Clip(r.buf.Insts), Scratch: slices.Clip(g.pool)}
	if len(g.spilled) > 0 {
		r.res.Spilled = slices.Clip(g.spilled)
	}
	return &r.res, nil
}

// Buffer lowers snippets back to back into one instruction slice, reusing
// its working state from one snippet to the next, so generating the code of
// every point of a function grows one slice instead of allocating per
// point. The zero value is ready to use.
type Buffer struct {
	// Insts holds the code of every snippet appended since the last Reset.
	Insts []riscv.Inst
	g     gen
}

// Reset empties the buffer, keeping its storage.
func (b *Buffer) Reset() { b.Insts = b.Insts[:0] }

// Append lowers sn for insertion at a point and appends its code to
// b.Insts. On error b.Insts is left as it was.
func (b *Buffer) Append(sn snippet.Snippet, opts Options) error {
	if opts.Arch == 0 {
		opts.Arch = riscv.RV64GC
	}
	g, start := &b.g, len(b.Insts)
	g.reset(opts, b.Insts)
	err := g.lower(sn)
	b.Insts = g.insts
	if err != nil {
		b.Insts = b.Insts[:start]
	}
	g.insts, g.opts = nil, Options{} // keep no caller slices
	return err
}

// lower appends the code of sn, inside its spill frame, to g.insts.
func (g *gen) lower(sn snippet.Snippet) error {
	if err := g.plan(sn); err != nil {
		return err
	}
	// The save/restore frame around the body is 16-byte aligned per the
	// ABI.
	frame := int64((len(g.spilled)*8 + 15) &^ 15)
	if len(g.spilled) > 0 {
		g.emit(riscv.MnADDI, riscv.RegSP, riscv.RegSP, riscv.RegNone, -frame)
		for i, r := range g.spilled {
			g.emit(riscv.MnSD, riscv.RegNone, riscv.RegSP, r, int64(i*8))
		}
	}
	body := len(g.insts)
	if err := g.stmt(sn); err != nil {
		return err
	}
	if err := g.finalize(body); err != nil {
		return err
	}
	if len(g.spilled) > 0 {
		for i, r := range g.spilled {
			g.emit(riscv.MnLD, r, riscv.RegSP, riscv.RegNone, int64(i*8))
		}
		g.emit(riscv.MnADDI, riscv.RegSP, riscv.RegSP, riscv.RegNone, frame)
	}
	return nil
}

// label is an index into gen.insts recorded for later offset patching.
type pendingBranch struct {
	idx   int // instruction index of the branch
	label int // label id
}

type gen struct {
	opts Options

	pool    []riscv.Reg              // scratch registers, in allocation order
	spilled []riscv.Reg              // subset of pool that must be saved/restored
	regs    [2][maxScratch]riscv.Reg // pool's and spilled's storage

	insts    []riscv.Inst
	labelPos map[int]int // label id -> instruction index
	branches []pendingBranch
	nextLbl  int
}

// reset readies g to lower one snippet after the code already in insts,
// keeping its slices' and map's storage.
func (g *gen) reset(opts Options, insts []riscv.Inst) {
	g.opts = opts
	g.pool, g.spilled = g.regs[0][:0], g.regs[1][:0]
	g.insts = insts
	clear(g.labelPos)
	g.branches = g.branches[:0]
	g.nextLbl = 0
}

// maxScratch is the most scratch registers a snippet may use.
const maxScratch = 8

// plan sizes the scratch pool for the snippet and decides what spills.
func (g *gen) plan(sn snippet.Snippet) error {
	need := scratchNeed(sn)
	if !g.opts.Arch.Has(riscv.ExtM) && containsMul(sn) {
		need += 2 // the shift-add multiply loop needs two extra temporaries
	}
	if need < 2 {
		need = 2
	}
	if need > maxScratch {
		return fmt.Errorf("codegen: snippet needs %d scratch registers (max %d)", need, maxScratch)
	}
	avoid := riscv.NewRegSet(riscv.RegSP, riscv.RegRA)
	// ParamReg reads argument registers: they must not be recycled as
	// scratch within the same snippet.
	for i := 0; i < 8; i++ {
		if readsParam(sn, i) {
			avoid.Add(riscv.XReg(uint32(10 + i)))
		}
	}

	if g.opts.Mode == ModeDeadRegister {
		for _, r := range g.opts.DeadRegs {
			if len(g.pool) == need {
				break
			}
			if r.IsX() && r != riscv.X0 && !avoid.Contains(r) {
				g.pool = append(g.pool, r)
				avoid.Add(r)
			}
		}
	}
	// Fill the remainder from the candidate order; those must be spilled.
	for _, r := range riscv.ScratchCandidates {
		if len(g.pool) == need {
			break
		}
		if avoid.Contains(r) {
			continue
		}
		g.pool = append(g.pool, r)
		g.spilled = append(g.spilled, r)
		avoid.Add(r)
	}
	if g.opts.Mode == ModeSpillAlways {
		g.spilled = append(g.spilled[:0], g.pool...)
	}
	if len(g.pool) < need {
		return fmt.Errorf("codegen: cannot find %d scratch registers", need)
	}
	return nil
}

// scratchNeed is a Sethi-Ullman-style register-need estimate.
func scratchNeed(sn snippet.Snippet) int {
	switch s := sn.(type) {
	case snippet.ConstInt, *snippet.Var, snippet.ParamReg:
		return 1
	case snippet.BinOp:
		l, r := scratchNeed(s.L), scratchNeed(s.R)
		n := r + 1
		if l > n {
			n = l
		}
		return n
	case snippet.Assign:
		return scratchNeed(s.Src) + 1
	case snippet.Sequence:
		n := 1
		for _, c := range s.List {
			if m := scratchNeed(c); m > n {
				n = m
			}
		}
		return n
	case snippet.If:
		n := scratchNeed(s.Cond)
		if s.Then != nil {
			if m := scratchNeed(s.Then); m > n {
				n = m
			}
		}
		if s.Else != nil {
			if m := scratchNeed(s.Else); m > n {
				n = m
			}
		}
		return n
	case snippet.CallFunc:
		// One register per already-evaluated argument stays pinned while
		// later arguments evaluate, plus one for the target address.
		n := len(s.Args) + 1
		if n < 2 {
			n = 2
		}
		for i, a := range s.Args {
			if m := scratchNeed(a) + i + 1; m > n {
				n = m
			}
		}
		return n
	}
	return 1
}

func containsMul(sn snippet.Snippet) bool {
	switch s := sn.(type) {
	case snippet.BinOp:
		return s.Op == snippet.OpMul || containsMul(s.L) || containsMul(s.R)
	case snippet.Assign:
		return containsMul(s.Src)
	case snippet.Sequence:
		for _, c := range s.List {
			if containsMul(c) {
				return true
			}
		}
	case snippet.If:
		if containsMul(s.Cond) {
			return true
		}
		if s.Then != nil && containsMul(s.Then) {
			return true
		}
		if s.Else != nil && containsMul(s.Else) {
			return true
		}
	case snippet.CallFunc:
		for _, a := range s.Args {
			if containsMul(a) {
				return true
			}
		}
	}
	return false
}

func readsParam(sn snippet.Snippet, idx int) bool {
	switch s := sn.(type) {
	case snippet.ParamReg:
		return s.Index == idx
	case snippet.BinOp:
		return readsParam(s.L, idx) || readsParam(s.R, idx)
	case snippet.Assign:
		return readsParam(s.Src, idx)
	case snippet.Sequence:
		for _, c := range s.List {
			if readsParam(c, idx) {
				return true
			}
		}
	case snippet.If:
		if readsParam(s.Cond, idx) {
			return true
		}
		if s.Then != nil && readsParam(s.Then, idx) {
			return true
		}
		if s.Else != nil && readsParam(s.Else, idx) {
			return true
		}
	case snippet.CallFunc:
		for _, a := range s.Args {
			if readsParam(a, idx) {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Emission helpers

func (g *gen) emit(mn riscv.Mnemonic, rd, rs1, rs2 riscv.Reg, imm int64) {
	g.insts = append(g.insts, riscv.Inst{
		Mn: mn, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: riscv.RegNone, Imm: imm,
	})
}

func (g *gen) newLabel() int {
	g.nextLbl++
	return g.nextLbl
}

func (g *gen) place(lbl int) {
	if g.labelPos == nil {
		g.labelPos = map[int]int{}
	}
	g.labelPos[lbl] = len(g.insts)
}

// branchTo emits a branch/jump whose offset is patched in finalize.
func (g *gen) branchTo(mn riscv.Mnemonic, rs1, rs2 riscv.Reg, lbl int) {
	g.branches = append(g.branches, pendingBranch{idx: len(g.insts), label: lbl})
	if mn == riscv.MnJAL {
		g.emit(mn, riscv.X0, riscv.RegNone, riscv.RegNone, 0)
	} else {
		g.emit(mn, riscv.RegNone, rs1, rs2, 0)
	}
}

// finalize patches label offsets in the body, which starts at
// g.insts[body]. Snippet code uses fixed 4-byte encodings, so offsets are
// (targetIndex - branchIndex) * 4.
func (g *gen) finalize(body int) error {
	for _, pb := range g.branches {
		pos, ok := g.labelPos[pb.label]
		if !ok {
			return fmt.Errorf("codegen: unplaced label %d", pb.label)
		}
		g.insts[pb.idx].Imm = int64(pos-pb.idx) * 4
	}
	// Validate everything encodes.
	for i, in := range g.insts[body:] {
		if _, err := riscv.Encode(in); err != nil {
			return fmt.Errorf("codegen: instruction %d (%v): %w", i, in, err)
		}
	}
	return nil
}

// materialize emits the li sequence for an arbitrary 64-bit constant.
func (g *gen) materialize(rd riscv.Reg, v int64) {
	if v >= -2048 && v <= 2047 {
		g.emit(riscv.MnADDI, rd, riscv.X0, riscv.RegNone, v)
		return
	}
	if v >= -(1<<31) && v < 1<<31 {
		hi := (v + 0x800) >> 12
		lo := v - hi<<12
		hi = hi << 44 >> 44
		g.emit(riscv.MnLUI, rd, riscv.RegNone, riscv.RegNone, hi)
		if lo != 0 {
			g.emit(riscv.MnADDIW, rd, rd, riscv.RegNone, lo)
		}
		return
	}
	lo12 := v << 52 >> 52
	g.materialize(rd, (v-lo12)>>12)
	g.emit(riscv.MnSLLI, rd, rd, riscv.RegNone, 12)
	if lo12 != 0 {
		g.emit(riscv.MnADDI, rd, rd, riscv.RegNone, lo12)
	}
}
