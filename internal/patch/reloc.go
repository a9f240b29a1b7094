package patch

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
)

// Function relocation: the instrumented version of a function is laid out
// in the patch area with snippet code spliced in front of instrumented
// instructions, every PC-relative instruction fixed up for its new address,
// and intra-function control flow retargeted to the relocated copies — the
// "safe transformations of the program's CFG" of Bernat & Miller that the
// paper's PatchAPI builds on.
//
// It runs in two steps. PlanRelocation lays the copy out and encodes it as
// if placed at address 0: a target inside the copy is an offset difference,
// so only instructions that leave the function (calls, tail calls, branches
// out of it) depend on where the copy lands, and the plan keeps those as
// fixups. Encode copies the code and re-encodes the fixups for the real
// base; the relocation answers address lookups from the plan's sorted
// (original address, offset) pairs.

// Insertion asks for code to run immediately before the original
// instruction at Addr.
type Insertion struct {
	Addr uint64
	Code []riscv.Inst
}

// EdgeInsertion asks for code to run when a specific CFG edge is traversed
// (the paper's "branch-taken and branch-not-taken edges, loop back edges"
// point kinds). Taken and direct edges get an out-of-line stub the branch
// is retargeted through; not-taken edges get code inlined on the
// fallthrough path, which other predecessors of the successor block bypass.
type EdgeInsertion struct {
	Block *parse.Block
	Kind  parse.EdgeKind // EdgeTaken, EdgeNotTaken, or EdgeDirect
	Code  []riscv.Inst
}

// Relocation is the result of relocating one function.
type Relocation struct {
	NewBase uint64
	Code    []byte
	addrs   []addrOff // the plan's pairs; shared with it, never written
}

// Addr returns the relocated address of the original instruction at orig —
// through any snippet code inserted in front of it, so redirected control
// flow executes the instrumentation.
func (r *Relocation) Addr(orig uint64) (uint64, bool) {
	i, ok := findAddr(r.addrs, orig)
	if !ok {
		return 0, false
	}
	return r.NewBase + r.addrs[i].off, true
}

// EachAddr calls f with every original instruction address and its
// relocated address, in ascending original order.
func (r *Relocation) EachAddr(f func(orig, reloc uint64)) {
	for _, a := range r.addrs {
		f(a.orig, r.NewBase+a.off)
	}
}

type itemKind uint8

const (
	itemOrig itemKind = iota
	itemSnippet
	// itemCont continues the expansion of the preceding original
	// instruction (the tail of an auipc materialization): it neither maps
	// an original address nor captures incoming control flow.
	itemCont
)

// rItem is one instruction of a relocation while PlanRelocation lays it out.
// Items live only in the planner's scratch slice; the plan keeps their
// encoding, not the items. An item points at its instruction (in the
// function's blocks, the inserted code, or a materialization) instead of
// copying it: 48 bytes instead of 104.
type rItem struct {
	inst     *riscv.Inst // never written through
	origAddr uint64      // for itemOrig
	off      uint64      // offset in the relocated copy
	// target is, with hasIntra, the original address of an intra-function
	// control-flow target needing remapping, and with hasExtern an absolute
	// target outside the relocated set (calls, tail calls).
	target uint64
	// stubID, when non-zero, redirects this item's control-flow target to
	// stub stubID-1 instead of target.
	stubID    int32
	size      uint8 // 2, or 4: a 4-byte item encodes its instruction uncompressed
	kind      itemKind
	hasIntra  bool
	hasExtern bool
	// attach marks snippet items that belong to the next original
	// instruction: control flow targeting that instruction must enter
	// through them. Edge-specific code does not attach.
	attach bool
}

// RelocPlan is the base-independent half of a function relocation, built
// before the function's patch-area address is known: the relocated code
// encoded at offset 0, a fixup for each instruction whose target lies
// outside the copy, and each original instruction's offset in the copy.
// Its size never depends on the base, so plans for many functions can be
// built concurrently and their bases assigned afterwards by a serial prefix
// sum — the key to a parallel rewrite pipeline whose output is
// byte-identical to the serial one.
type RelocPlan struct {
	// Size is the total byte size the encoded relocation will occupy.
	Size uint64

	code   []byte    // the relocated copy encoded at base 0
	fixups []fixup   // 4-byte instructions targeting absolute addresses
	addrs  []addrOff // relocated offset of each original address, by address
}

// fixup is an instruction at offset off of the copy whose target is the
// absolute address target; Encode fills in its bytes once the base is known.
type fixup struct {
	off    uint64
	target uint64
	inst   riscv.Inst
}

// addrOff is where control flow aimed at original address orig enters the
// copy: the instruction itself, or the attached snippet code in front of it.
type addrOff struct{ orig, off uint64 }

// findAddr binary-searches pairs sorted by original address for orig.
func findAddr(addrs []addrOff, orig uint64) (int, bool) {
	return slices.BinarySearchFunc(addrs, orig,
		func(a addrOff, orig uint64) int { return cmp.Compare(a.orig, orig) })
}

// PlanRelocation validates the request, lays out the relocated copy of fn
// and encodes it, leaving only targets outside the copy to Encode.
func PlanRelocation(fn *parse.Function, st *symtab.Symtab, insertions []Insertion,
	edges []EdgeInsertion, arch riscv.ExtSet) (*RelocPlan, error) {
	return planRelocation(fn, st, insertions, edges, arch, new([]rItem))
}

// planRelocation is PlanRelocation laying the copy out in *scratch, whose
// storage it reuses and leaves there for the next call.
func planRelocation(fn *parse.Function, st *symtab.Symtab, insertions []Insertion,
	edges []EdgeInsertion, arch riscv.ExtSet, scratch *[]rItem) (*RelocPlan, error) {

	// Validate insertion addresses, then order them by address (stably, so
	// code inserted at one address keeps its request order). Insertions at
	// block entries come in block order, already sorted.
	byAddr := func(a, b Insertion) int { return cmp.Compare(a.Addr, b.Addr) }
	code := 0
	for _, ins := range insertions {
		if _, ok := fn.BlockContaining(ins.Addr); !ok {
			return nil, fmt.Errorf("patch: insertion at %#x is outside function %s", ins.Addr, fn.Name)
		}
		code += len(ins.Code)
	}
	if !slices.IsSortedFunc(insertions, byAddr) {
		insertions = slices.Clone(insertions)
		slices.SortStableFunc(insertions, byAddr)
	}

	// Group edge requests by block.
	type edgeReq struct {
		taken, notTaken, direct [][]riscv.Inst
	}
	var edgeByBlock map[*parse.Block]*edgeReq
	if len(edges) > 0 {
		edgeByBlock = make(map[*parse.Block]*edgeReq, len(edges))
	}
	for _, e := range edges {
		code += len(e.Code) + 1 // at most: a stub also jumps back
		if e.Block == nil || e.Block.Func != fn {
			return nil, fmt.Errorf("patch: edge insertion block is not in function %s", fn.Name)
		}
		r := edgeByBlock[e.Block]
		if r == nil {
			r = &edgeReq{}
			edgeByBlock[e.Block] = r
		}
		term := e.Block.Last()
		switch e.Kind {
		case parse.EdgeTaken:
			if term.Cat() != riscv.CatBranch {
				return nil, fmt.Errorf("patch: taken-edge insertion on non-branch block %v", e.Block)
			}
			r.taken = append(r.taken, e.Code)
		case parse.EdgeNotTaken:
			if term.Cat() != riscv.CatBranch {
				return nil, fmt.Errorf("patch: not-taken-edge insertion on non-branch block %v", e.Block)
			}
			r.notTaken = append(r.notTaken, e.Code)
		case parse.EdgeDirect:
			if !term.IsJAL() || term.Rd != riscv.X0 {
				return nil, fmt.Errorf("patch: direct-edge insertion on block %v without a plain jump", e.Block)
			}
			r.direct = append(r.direct, e.Code)
		default:
			return nil, fmt.Errorf("patch: unsupported edge kind %v", e.Kind)
		}
	}

	// Safety: a block whose indirect jump could not be resolved may target
	// any address in the original body; relocating around it would silently
	// split execution between the two copies. Refuse, as Dyninst refuses
	// unsafe transformations.
	nInsts := 0
	for _, b := range fn.Blocks {
		if b.Purpose == parse.PurposeUnresolved {
			return nil, fmt.Errorf("patch: function %s has an unresolvable indirect jump at %#x; refusing to relocate",
				fn.Name, b.Last().Addr)
		}
		nInsts += len(b.Insts)
	}
	// Lay out the copy: original instructions in block order, each behind
	// the snippet code inserted at its address, then the edge stubs.
	type stub struct {
		code   [][]riscv.Inst
		target uint64 // original address the stub jumps on to
		start  int    // index of the stub's first item
	}
	var stubs []stub
	items := slices.Grow((*scratch)[:0], nInsts+code)
	defer func() { *scratch = items }()
	snippet := func(code []riscv.Inst, attach bool) {
		for i := range code {
			items = append(items, rItem{kind: itemSnippet, inst: &code[i], size: 4, attach: attach})
		}
	}
	for _, b := range fn.Blocks {
		req := edgeByBlock[b]
		for ii := range b.Insts {
			inst := &b.Insts[ii]
			j, _ := slices.BinarySearchFunc(insertions, inst.Addr,
				func(in Insertion, a uint64) int { return cmp.Compare(in.Addr, a) })
			for ; j < len(insertions) && insertions[j].Addr == inst.Addr; j++ {
				snippet(insertions[j].Code, true)
			}
			isTerm := ii == len(b.Insts)-1
			// A jalr the classifier proved to be an intra-function jump
			// (rule 1) computes its target from registers that hold
			// *original* addresses; left untouched it would escape back
			// into the uninstrumented body. The resolution supplies its
			// unique target, so rewrite it into a direct jump.
			if isTerm && inst.IsJALR() && b.Purpose == parse.PurposeJump {
				target, ok := soleIndirectTarget(b)
				if !ok {
					return nil, fmt.Errorf("patch: resolved jalr jump at %#x has no unique target", inst.Addr)
				}
				items = append(items, rItem{kind: itemOrig, inst: &plainJump, origAddr: inst.Addr,
					size: 4, hasIntra: true, target: target})
				continue
			}
			items = relocInst(items, fn, inst)
			if !isTerm || req == nil {
				continue
			}
			// Out-of-line stubs for taken/direct edges: retarget the
			// terminator through the stub.
			stubCode := req.direct
			if inst.Cat() == riscv.CatBranch {
				stubCode = req.taken
			}
			if len(stubCode) > 0 {
				stubs = append(stubs, stub{code: stubCode, target: inst.Addr + uint64(inst.Imm)})
				items[len(items)-1].stubID = int32(len(stubs))
			}
			// Inline code on the fallthrough path only: other predecessors
			// of the successor block enter past it.
			for _, code := range req.notTaken {
				snippet(code, false)
			}
		}
	}
	// Append the edge stubs after the function body.
	for i := range stubs {
		stubs[i].start = len(items)
		for _, code := range stubs[i].code {
			snippet(code, false)
		}
		items = append(items, rItem{kind: itemSnippet, inst: &plainJump, size: 4,
			hasIntra: true, target: stubs[i].target})
	}

	// Assign offsets, then map each original address to its instruction or
	// to the start of the *attached* snippet run in front of it (edge-specific
	// code never captures incoming control flow). The first placement of an
	// address wins.
	var size uint64
	nFixups := 0
	for i := range items {
		items[i].off = size
		size += uint64(items[i].size)
		if items[i].hasExtern && items[i].stubID == 0 {
			nFixups++
		}
	}
	addrs := make([]addrOff, 0, nInsts)
	var pendingStart uint64
	pendingValid := false
	for _, it := range items {
		switch {
		case it.kind == itemSnippet && it.attach:
			if !pendingValid {
				pendingStart, pendingValid = it.off, true
			}
		case it.kind == itemSnippet:
			pendingValid = false
		case it.kind == itemOrig:
			a := addrOff{it.origAddr, it.off}
			if pendingValid {
				a.off, pendingValid = pendingStart, false
			}
			addrs = append(addrs, a)
		}
	}
	slices.SortStableFunc(addrs, func(a, b addrOff) int { return cmp.Compare(a.orig, b.orig) })
	addrs = slices.CompactFunc(addrs, func(a, b addrOff) bool { return a.orig == b.orig })

	// Encode at base 0. Targets inside the copy are offset differences;
	// targets outside it become fixups with a placeholder in the code.
	plan := &RelocPlan{
		Size: size, code: make([]byte, 0, size), addrs: addrs,
	}
	if nFixups > 0 {
		plan.fixups = make([]fixup, 0, nFixups)
	}
	for _, it := range items {
		inst := *it.inst
		if it.size == 4 {
			inst.Compressed = false // a branch may need a wider offset than c.beqz or c.j
		}
		switch {
		case it.stubID != 0:
			inst.Imm = int64(items[stubs[it.stubID-1].start].off) - int64(it.off)
		case it.hasIntra:
			i, ok := findAddr(addrs, it.target)
			if !ok {
				return nil, fmt.Errorf("patch: intra target %#x of %v not in relocation", it.target, inst)
			}
			inst.Imm = int64(addrs[i].off) - int64(it.off)
		case it.hasExtern:
			plan.fixups = append(plan.fixups, fixup{off: it.off, target: it.target, inst: inst})
			plan.code = append(plan.code, 0, 0, 0, 0)
			continue
		}
		n := len(plan.code)
		var half uint16
		compressed := false
		if it.kind == itemOrig && inst.Compressed {
			half, compressed = riscv.Compress(inst) // keeps the compressed form
		}
		if compressed {
			plan.code = binary.LittleEndian.AppendUint16(plan.code, half)
		} else {
			inst.Compressed = false
			w, err := riscv.Encode(inst)
			if err != nil {
				return nil, fmt.Errorf("patch: encoding relocated %v at offset %#x: %w", inst, it.off, err)
			}
			plan.code = binary.LittleEndian.AppendUint32(plan.code, w)
		}
		if got := len(plan.code) - n; got != int(it.size) {
			return nil, fmt.Errorf("patch: relocated %v sized %d, encoded %d", inst, it.size, got)
		}
	}
	return plan, nil
}

// Encode lays the plan out at newBase and produces the encoded relocation:
// a copy of the plan's code with every fixup re-encoded for its absolute
// target, whose address lookups shift the plan's offsets by newBase. The
// relocation shares the plan's address pairs. The output depends only on
// the plan and the base, never on when or on which goroutine the plan was
// built. Encode never mutates the plan, so one cached plan may be encoded by
// any number of goroutines concurrently (the server replays cached plans).
func (p *RelocPlan) Encode(newBase uint64) (*Relocation, error) {
	rel, err := p.encode(make([]byte, p.Size), newBase)
	if err != nil {
		return nil, err
	}
	return &rel, nil
}

// encode is Encode writing the code into code, which is p.Size bytes long.
func (p *RelocPlan) encode(code []byte, newBase uint64) (Relocation, error) {
	copy(code, p.code)
	for _, f := range p.fixups {
		inst := f.inst
		inst.Imm = int64(f.target) - int64(newBase+f.off)
		w, err := riscv.Encode(inst)
		if err != nil {
			return Relocation{}, fmt.Errorf("patch: encoding relocated %v at %#x: %w", inst, newBase+f.off, err)
		}
		binary.LittleEndian.PutUint32(code[f.off:], w)
	}
	return Relocation{NewBase: newBase, Code: code, addrs: p.addrs}, nil
}

// plainJump is a jal x0 awaiting its offset.
var plainJump = riscv.Inst{Mn: riscv.MnJAL, Rd: riscv.X0,
	Rs1: riscv.RegNone, Rs2: riscv.RegNone, Rs3: riscv.RegNone}

// soleIndirectTarget returns the unique intra-function target of a
// resolved indirect-jump block.
func soleIndirectTarget(b *parse.Block) (uint64, bool) {
	var target uint64
	found := false
	for _, e := range b.Out {
		if e.Kind == parse.EdgeIndirect {
			if found && e.Target != target {
				return 0, false
			}
			target, found = e.Target, true
		}
	}
	return target, found
}

// relocInst appends the relocation items for one original instruction.
func relocInst(items []rItem, fn *parse.Function, inst *riscv.Inst) []rItem {
	it := rItem{kind: itemOrig, inst: inst, origAddr: inst.Addr, size: uint8(inst.Size())}
	switch cat := inst.Cat(); {
	case cat == riscv.CatBranch || cat == riscv.CatJAL:
		target := inst.Addr + uint64(inst.Imm)
		it.size = 4 // may need a wider offset than c.beqz or c.j
		if _, intra := fn.BlockAt(target); intra && (cat == riscv.CatBranch || inst.Rd == riscv.X0) {
			it.hasIntra, it.target = true, target
		} else {
			// Calls, tail calls, and conditional branches out of the
			// function (pathological but possible) keep the absolute target.
			it.hasExtern, it.target = true, target
		}
	case cat == riscv.CatJALR:
		// Target comes from a register; the value was fixed up where it was
		// produced (auipc rewriting below, or the patched jump table).
	case inst.Mn == riscv.MnAUIPC:
		// auipc computes pc-relative values; relocation changes pc, so
		// rewrite it into an absolute materialization of the original value
		// (rd ends up with exactly the same bits, so any paired lo12
		// consumer — jalr, addi, loads — still works unchanged).
		value := int64(inst.Addr) + inst.Imm<<12
		seq := materializeAbs(inst.Rd, value)
		for i := range seq {
			it := rItem{kind: itemCont, inst: &seq[i], size: 4}
			if i == 0 {
				it.kind, it.origAddr = itemOrig, inst.Addr
			}
			items = append(items, it)
		}
		return items
	}
	return append(items, it)
}

// MaterializeAbs builds a fixed-width (4-byte instructions) li sequence that
// leaves rd holding exactly v. The static rewriter uses it to flatten auipc
// into position-independent form; the DBI engine reuses it for the same
// purpose when copying blocks into the code cache (and for jal link values).
func MaterializeAbs(rd riscv.Reg, v int64) []riscv.Inst { return materializeAbs(rd, v) }

// materializeAbs builds a fixed-width (4-byte instructions) li sequence.
func materializeAbs(rd riscv.Reg, v int64) []riscv.Inst {
	mk := func(mn riscv.Mnemonic, rd, rs1 riscv.Reg, imm int64) riscv.Inst {
		return riscv.Inst{Mn: mn, Rd: rd, Rs1: rs1, Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: imm}
	}
	if v >= -2048 && v <= 2047 {
		return []riscv.Inst{mk(riscv.MnADDI, rd, riscv.X0, v)}
	}
	if v >= -(1<<31) && v < 1<<31 {
		hi := (v + 0x800) >> 12
		lo := v - hi<<12
		hi = hi << 44 >> 44
		out := []riscv.Inst{mk(riscv.MnLUI, rd, riscv.RegNone, hi)}
		if lo != 0 {
			out = append(out, mk(riscv.MnADDIW, rd, rd, lo))
		}
		return out
	}
	lo12 := v << 52 >> 52
	out := materializeAbs(rd, (v-lo12)>>12)
	out = append(out, mk(riscv.MnSLLI, rd, rd, 12))
	if lo12 != 0 {
		out = append(out, mk(riscv.MnADDI, rd, rd, lo12))
	}
	return out
}
