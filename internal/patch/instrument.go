package patch

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
)

// Every engine instruments a function with the same step: planFunc
// generates the code of each point and edge request, picks the entry
// scratch register and plans the relocation; RelocPlan.Encode places the
// copy at a base; splice redirects the entry and repoints the jump-table
// slots, writing through a Target the engine supplies. The Rewriter runs
// the three in its plan, encode and splice phases over whole binaries;
// Live runs them one function at a time on a live process.

// Target is the image a relocated function is spliced into: a rewritten
// file's section bytes or a live process's memory.
type Target interface {
	// WriteMem writes an entry patch or a repointed jump-table slot.
	WriteMem(addr uint64, b []byte) error
}

// TrapTarget is a Target that can field the last rung of the jump ladder
// (a live process under control): execution reaching from must continue
// at to.
type TrapTarget interface {
	Target
	Trap(from, to uint64) error
}

// planScratch is one planning worker's storage, reused from function to
// function: the snippet code of every point and edge of the function being
// planned, the insertions windowing it, and the relocation's items. None of
// it outlives the plan, which keeps only encoded bytes.
type planScratch struct {
	code  codegen.Buffer
	ends  []int // where each request's code ends in code.Insts: points, then edges
	ins   []Insertion
	edges []EdgeInsertion
	items []rItem
}

// scratchPool keeps planning workers' storage from one Plan to the next, so
// a whole-binary rewrite grows it once rather than on every call.
var scratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// release drops the scratch's references into the plan it last worked on
// (blocks, code windows), so a pooled scratch pins no analysis.
func (sc *planScratch) release() {
	clear(sc.ins[:cap(sc.ins)])
	clear(sc.edges[:cap(sc.edges)])
	clear(sc.items[:cap(sc.items)])
}

// planFunc generates fn's snippet code with dead registers from lv when
// the mode allows, picks the entry-patch scratch register, and builds the
// base-independent relocation plan, working in sc.
func planFunc(st *symtab.Symtab, mode codegen.Mode, lv *dataflow.LivenessResult,
	fn *parse.Function, reqs []request, edges []edgeRequest, sc *planScratch) (*funcPlan, error) {
	sc.code.Reset()
	sc.ends = sc.ends[:0]
	for _, req := range reqs {
		if req.point.Func != fn {
			return nil, fmt.Errorf("patch: point %v is not in %s", req.point, fn.Name)
		}
		if err := generate(&sc.code, st, mode, lv, req.sn, req.point.Addr); err != nil {
			return nil, fmt.Errorf("patch: generating snippet at %v: %w", req.point, err)
		}
		sc.ends = append(sc.ends, len(sc.code.Insts))
	}
	for _, req := range edges {
		if req.point.Func != fn {
			return nil, fmt.Errorf("patch: edge point %v is not in %s", req.point, fn.Name)
		}
		// Scratch registers for edge code come from the edge's
		// destination: the source terminator has already read its
		// operands when the edge code runs.
		if err := generate(&sc.code, st, mode, lv, req.sn, req.point.EdgeDest()); err != nil {
			return nil, fmt.Errorf("patch: generating edge snippet at %v: %w", req.point, err)
		}
		sc.ends = append(sc.ends, len(sc.code.Insts))
	}
	// The code windows are taken once every snippet is generated, because
	// the buffer moves as it grows.
	code, start := sc.code.Insts, 0
	window := func(k int) []riscv.Inst {
		lo, hi := start, sc.ends[k]
		start = hi
		return code[lo:hi:hi]
	}
	sc.ins = sc.ins[:0]
	for k, req := range reqs {
		sc.ins = append(sc.ins, Insertion{Addr: req.point.Addr, Code: window(k)})
	}
	sc.edges = sc.edges[:0]
	for k, req := range edges {
		sc.edges = append(sc.edges, EdgeInsertion{Block: req.point.Block, Kind: req.point.Kind, Code: window(len(reqs) + k)})
	}
	plan, err := planRelocation(fn, st, sc.ins, sc.edges, st.Extensions, &sc.items)
	if err != nil {
		return nil, err
	}
	lo, hi := fn.Extent()
	if lo != fn.Entry {
		return nil, fmt.Errorf("patch: function %s extent starts at %#x, not its entry", fn.Name, lo)
	}
	fp := &funcPlan{fn: fn, plan: plan, room: hi - fn.Entry, scratch: riscv.RegNone}
	if dead := lv.DeadScratchX(fn.Entry); len(dead) > 0 {
		fp.scratch = dead[0]
	}
	return fp, nil
}

// generate lowers sn for the point at addr into buf.
func generate(buf *codegen.Buffer, st *symtab.Symtab, mode codegen.Mode, lv *dataflow.LivenessResult,
	sn snippet.Snippet, addr uint64) error {
	var dead []riscv.Reg
	if mode == codegen.ModeDeadRegister {
		dead = lv.DeadScratchX(addr)
	}
	return buf.Append(sn, codegen.Options{Arch: st.Extensions, Mode: mode, DeadRegs: dead})
}

// splice redirects the function's entry to its encoded copy rel with the
// cheapest jump that fits in its extent (the trap rung only when t can
// field it), then repoints its jump-table slots at the relocated blocks.
// It returns the patch kind and the relocated entry.
func (fp *funcPlan) splice(st *symtab.Symtab, rel *Relocation, t Target) (PatchKind, uint64, error) {
	fn := fp.fn
	newEntry, _ := rel.Addr(fn.Entry)
	tt, canTrap := t.(TrapTarget)
	kind, bytes, err := JumpPatch(fn.Entry, newEntry, fp.room, st.Extensions, fp.scratch, canTrap)
	if err != nil {
		return 0, 0, fmt.Errorf("patch: function %s: %w", fn.Name, err)
	}
	if kind == PatchTrap {
		err = tt.Trap(fn.Entry, newEntry)
	} else {
		err = t.WriteMem(fn.Entry, bytes)
	}
	if err != nil {
		return 0, 0, err
	}
	for _, b := range fn.Blocks {
		jt := b.Table
		if jt == nil {
			continue
		}
		var buf [8]byte
		for i := uint64(0); i < jt.Count; i++ {
			slot := jt.Base + i*jt.Stride
			old, ok := st.ReadMem(slot, jt.Width)
			if !ok {
				return 0, 0, fmt.Errorf("patch: cannot read jump table slot %#x", slot)
			}
			nt, ok := rel.Addr(old &^ 1)
			if !ok {
				return 0, 0, fmt.Errorf("patch: jump table slot %#x target %#x not relocated", slot, old)
			}
			binary.LittleEndian.PutUint64(buf[:], nt)
			if err := t.WriteMem(slot, buf[:jt.Width]); err != nil {
				return 0, 0, err
			}
		}
	}
	return kind, newEntry, nil
}

// Live instruments functions of a live process in place (the two dynamic
// forms of Figure 1). Each function is relocated into fresh pages of the
// patch area, which Live maps and writes, and spliced in through the
// caller's Target. A Live is not safe for concurrent use.
type Live struct {
	st       *symtab.Symtab
	mem      Memory
	next     uint64 // the patch area's next free page
	liveness *LivenessCache
	scratch  planScratch
	// Vars allocates the process's instrumentation variables.
	Vars Vars
	// Prov maps the patch area's code back to the original program.
	Prov Provenance
}

// NewLive prepares to instrument a process, whose memory is mem, running
// st's image.
func NewLive(st *symtab.Symtab, mem Memory) *Live {
	l := LayoutOf(st.File)
	return &Live{st: st, mem: mem, next: l.PatchArea, liveness: NewLivenessCache(),
		Vars: newVars(l.LiveVars, mem)}
}

// Instrument relocates fn with sn at the points and edges and splices the
// copy in through t. The relocation maps fn's instructions to their copies.
func (l *Live) Instrument(t Target, fn *parse.Function, points []snippet.Point,
	edges []snippet.EdgePoint, sn snippet.Snippet, mode codegen.Mode) (*Relocation, PatchKind, error) {
	reqs := make([]request, len(points))
	for i, pt := range points {
		reqs[i] = request{pt, sn}
	}
	edgeReqs := make([]edgeRequest, len(edges))
	for i, pt := range edges {
		edgeReqs[i] = edgeRequest{pt, sn}
	}
	fp, err := planFunc(l.st, mode, l.liveness.For(fn), fn, reqs, edgeReqs, &l.scratch)
	if err != nil {
		return nil, 0, err
	}
	rel, err := fp.plan.encode(make([]byte, fp.plan.Size), l.next)
	if err != nil {
		return nil, 0, err
	}
	size := (uint64(len(rel.Code)) + 0xfff) &^ 0xfff
	l.mem.MapRegion(l.next, size)
	if err := l.mem.WriteMem(l.next, rel.Code); err != nil {
		return nil, 0, err
	}
	l.scratch.provenance(&l.Prov, l.next, uint64(len(rel.Code)))
	l.next += size
	kind, _, err := fp.splice(l.st, &rel, t)
	return &rel, kind, err
}

// provenance appends to p the spans of the relocation last planned in sc,
// placed at base; an expansion's continuation items extend its span.
func (sc *planScratch) provenance(p *Provenance, base, size uint64) {
	for i, it := range sc.items {
		if it.kind != itemSnippet {
			if it.kind == itemOrig {
				p.Add(Span{Lo: base + it.off, Orig: it.origAddr, Kind: KindOrig})
			}
			continue
		}
		// Snippet code runs before the next original instruction, an edge
		// stub (ended by the only snippet item with a target) before that.
		kind, next := KindSnippet, uint64(0)
		for _, n := range sc.items[i:] {
			if n.kind != itemSnippet {
				next = n.origAddr
				break
			}
			if n.hasIntra {
				kind, next = KindEdgeStub, n.target
				break
			}
		}
		p.Gen(Span{Lo: base + it.off, Orig: next, Kind: kind}, *it.inst)
	}
	p.Add(Span{Lo: base + size})
}
