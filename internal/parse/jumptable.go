package parse

import (
	"sort"

	"rvdyn/internal/riscv"
)

// Jump-table analysis (paper Section 3.2.3, rule 5). The classic RISC-V
// dispatch shape is
//
//	bltu  idx, bound, Lswitch   ; or bgeu idx, bound, Ldefault
//	...
//	la    base, table           ; lui+addi or auipc+addi
//	slli  t, idx, 3
//	add   t, t, base
//	ld    t, 0(t)
//	jalr  x0, 0(t)
//
// The analysis runs a small abstract interpretation backward from the jalr:
// the target register must evaluate to load(const_base + idx<<scale), the
// index register must be bounded by a dominating comparison against a
// constant, and every table slot must hold a valid code address. This is a
// miniature of Dyninst's slicing-based jump table analysis [Meng & Miller].

// absVal is the abstract value lattice for table discovery.
type absVal struct {
	kind  int // avTop, avConst, avRef, avScaled, avLoad
	k     uint64
	reg   riscv.Reg // index register for avRef/avScaled
	shift uint      // avScaled: value = (reg << shift) + k
	width int       // avLoad: loaded width
	addr  absAddr   // avLoad: the address form
}

type absAddr struct {
	base  uint64
	reg   riscv.Reg
	shift uint
}

const (
	avTop = iota
	avConst
	avRef
	avScaled
	avLoad
)

// symEval computes the abstract value of reg immediately before
// b.Insts[idx], walking back through the block and unique predecessors.
func (p *parser) symEval(b *Block, idx int, reg riscv.Reg, depth int) absVal {
	if reg == riscv.X0 {
		return absVal{kind: avConst, k: 0}
	}
	if depth > 24 {
		return absVal{kind: avTop}
	}
	for i := idx - 1; i >= 0; i-- {
		inst := b.Insts[i]
		if !inst.RegsWritten().Contains(reg) {
			continue
		}
		if inst.Rd != reg {
			return absVal{kind: avTop}
		}
		return p.symTransfer(b, i, inst, depth)
	}
	if pred := uniqueIntraPred(b); pred != nil {
		return p.symEval(pred, len(pred.Insts), reg, depth+1)
	}
	return absVal{kind: avRef, reg: reg}
}

func (p *parser) symTransfer(b *Block, i int, inst riscv.Inst, depth int) absVal {
	get := func(r riscv.Reg) absVal { return p.symEval(b, i, r, depth+1) }
	switch inst.Mn {
	case riscv.MnLUI:
		return absVal{kind: avConst, k: uint64(inst.Imm << 12)}
	case riscv.MnAUIPC:
		return absVal{kind: avConst, k: inst.Addr + uint64(inst.Imm<<12)}
	case riscv.MnADDI, riscv.MnADDIW:
		a := get(inst.Rs1)
		switch a.kind {
		case avConst:
			v := a.k + uint64(inst.Imm)
			if inst.Mn == riscv.MnADDIW {
				v = uint64(int64(int32(uint32(v))))
			}
			return absVal{kind: avConst, k: v}
		case avRef, avScaled:
			a.k += uint64(inst.Imm)
			return a
		}
	case riscv.MnADD:
		a, c := get(inst.Rs1), get(inst.Rs2)
		if a.kind == avConst && c.kind == avConst {
			return absVal{kind: avConst, k: a.k + c.k}
		}
		if a.kind == avConst && (c.kind == avRef || c.kind == avScaled) {
			c.k += a.k
			return c
		}
		if c.kind == avConst && (a.kind == avRef || a.kind == avScaled) {
			a.k += c.k
			return a
		}
	case riscv.MnSLLI:
		a := get(inst.Rs1)
		switch a.kind {
		case avConst:
			return absVal{kind: avConst, k: a.k << uint(inst.Imm)}
		case avRef:
			return absVal{kind: avScaled, reg: a.reg, shift: uint(inst.Imm), k: a.k << uint(inst.Imm)}
		case avScaled:
			a.shift += uint(inst.Imm)
			a.k <<= uint(inst.Imm)
			return a
		}
	case riscv.MnSH1ADD, riscv.MnSH2ADD, riscv.MnSH3ADD:
		// The Zba address-generation idiom: rd = (rs1 << k) + rs2 — RVA23
		// compilers index jump tables with one instruction instead of
		// slli+add.
		var sh uint
		switch inst.Mn {
		case riscv.MnSH1ADD:
			sh = 1
		case riscv.MnSH2ADD:
			sh = 2
		default:
			sh = 3
		}
		a, base := get(inst.Rs1), get(inst.Rs2)
		var shifted absVal
		switch a.kind {
		case avConst:
			shifted = absVal{kind: avConst, k: a.k << sh}
		case avRef:
			shifted = absVal{kind: avScaled, reg: a.reg, shift: sh, k: a.k << sh}
		case avScaled:
			shifted = absVal{kind: avScaled, reg: a.reg, shift: a.shift + sh, k: a.k << sh}
		default:
			return absVal{kind: avTop}
		}
		if base.kind != avConst {
			return absVal{kind: avTop}
		}
		if shifted.kind == avConst {
			return absVal{kind: avConst, k: shifted.k + base.k}
		}
		shifted.k += base.k
		return shifted
	case riscv.MnLD, riscv.MnLW, riscv.MnLWU:
		a := get(inst.Rs1)
		w := inst.MemWidth()
		switch a.kind {
		case avConst:
			if v, ok := p.readOnlyLoad(a.k+uint64(inst.Imm), w); ok {
				if inst.Mn == riscv.MnLW {
					v = uint64(int64(int32(uint32(v))))
				}
				return absVal{kind: avConst, k: v}
			}
		case avScaled:
			return absVal{kind: avLoad, width: w,
				addr: absAddr{base: a.k + uint64(inst.Imm), reg: a.reg, shift: a.shift}}
		}
	}
	return absVal{kind: avTop}
}

// findBound searches the jump block's predecessors for a dominating bounds
// check on the index register: bltu idx, K, table-side or bgeu idx, K,
// default-side. It returns the exclusive upper bound.
func (p *parser) findBound(b *Block, idxReg riscv.Reg) (uint64, bool) {
	seen := map[*Block]bool{b: true}
	cur := b
	for hops := 0; hops < 4; hops++ {
		pred := uniqueIntraPred(cur)
		if pred == nil || seen[pred] || len(pred.Insts) == 0 {
			return 0, false
		}
		seen[pred] = true
		term := pred.Last()
		if term.Cat() == riscv.CatBranch {
			// Which side of the branch leads to the table block?
			var towardTable EdgeKind
			for _, e := range pred.Out {
				if e.To == cur {
					towardTable = e.Kind
				}
			}
			if term.Mn == riscv.MnBLTU && term.Rs1 == idxReg && towardTable == EdgeTaken {
				if k, ok := p.resolveConst(pred, len(pred.Insts)-1, term.Rs2, 0); ok {
					return k, true
				}
			}
			if term.Mn == riscv.MnBGEU && term.Rs1 == idxReg && towardTable == EdgeNotTaken {
				if k, ok := p.resolveConst(pred, len(pred.Insts)-1, term.Rs2, 0); ok {
					return k, true
				}
			}
			// A branch on an unrelated register: keep walking up.
		}
		cur = pred
	}
	return 0, false
}

const maxTableEntries = 4096

// analyzeJumpTable attempts to prove b's terminating jalr dispatches
// through a bounded table of code addresses and returns the table.
func (p *parser) analyzeJumpTable(fn *Function, b *Block, idx int, term riscv.Inst) (*JumpTable, bool) {
	v := p.symEval(b, idx, term.Rs1, 0)
	if v.kind != avLoad || term.Imm != 0 {
		return nil, false
	}
	if v.addr.shift == 0 {
		return nil, false // unscaled index: not a table access pattern
	}
	bound, ok := p.findBound(b, v.addr.reg)
	if !ok || bound == 0 || bound > maxTableEntries {
		return nil, false
	}
	stride := uint64(1) << v.addr.shift
	if uint64(v.width) > stride {
		return nil, false
	}
	targets := map[uint64]bool{}
	for i := uint64(0); i < bound; i++ {
		slot := v.addr.base + i*stride
		raw, ok := p.readOnlyLoad(slot, v.width)
		if !ok {
			return nil, false
		}
		t := raw
		if v.width == 4 {
			t = uint64(int64(int32(uint32(raw)))) // 32-bit table entries sign-extend
		}
		t &^= 1
		if !p.st.InCode(t) {
			return nil, false
		}
		targets[t] = true
	}
	out := make([]uint64, 0, len(targets))
	for t := range targets {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return &JumpTable{Targets: out, Base: v.addr.base, Stride: stride, Width: v.width, Count: bound}, true
}
