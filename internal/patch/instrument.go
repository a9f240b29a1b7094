package patch

import (
	"encoding/binary"
	"fmt"

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

// planFunc generates fn's snippet code with dead registers from lv when
// the mode allows, picks the entry-patch scratch register, and builds the
// base-independent relocation plan.
func planFunc(st *symtab.Symtab, mode codegen.Mode, lv *dataflow.LivenessResult,
	fn *parse.Function, reqs []request, edges []edgeRequest) (*funcPlan, error) {
	var insertions []Insertion
	for _, req := range reqs {
		if req.point.Func != fn {
			return nil, fmt.Errorf("patch: point %v is not in %s", req.point, fn.Name)
		}
		code, err := generate(st, mode, lv, req.sn, req.point.Addr)
		if err != nil {
			return nil, fmt.Errorf("patch: generating snippet at %v: %w", req.point, err)
		}
		insertions = append(insertions, Insertion{Addr: req.point.Addr, Code: code})
	}
	var edgeIns []EdgeInsertion
	for _, req := range edges {
		if req.point.Func != fn {
			return nil, fmt.Errorf("patch: edge point %v is not in %s", req.point, fn.Name)
		}
		// Scratch registers for edge code come from the edge's
		// destination: the source terminator has already read its
		// operands when the edge code runs.
		code, err := generate(st, mode, lv, req.sn, req.point.EdgeDest())
		if err != nil {
			return nil, fmt.Errorf("patch: generating edge snippet at %v: %w", req.point, err)
		}
		edgeIns = append(edgeIns, EdgeInsertion{Block: req.point.Block, Kind: req.point.Kind, Code: code})
	}
	plan, err := PlanRelocation(fn, st, insertions, edgeIns, st.Extensions)
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

// generate lowers sn for the point at addr.
func generate(st *symtab.Symtab, mode codegen.Mode, lv *dataflow.LivenessResult,
	sn snippet.Snippet, addr uint64) ([]riscv.Inst, error) {
	var dead []riscv.Reg
	if mode == codegen.ModeDeadRegister {
		dead = lv.DeadScratchX(addr)
	}
	res, err := codegen.Generate(sn, codegen.Options{Arch: st.Extensions, Mode: mode, DeadRegs: dead})
	if err != nil {
		return nil, err
	}
	return res.Insts, nil
}

// splice redirects the function's entry to its encoded copy with the
// cheapest jump that fits in its extent (the trap rung only when t can
// field it), then repoints its jump-table slots at the relocated blocks.
// It returns the patch kind and the relocated entry.
func (fp *funcPlan) splice(st *symtab.Symtab, t Target) (PatchKind, uint64, error) {
	fn, rel := fp.fn, fp.rel
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
		if b.Purpose != parse.PurposeJumpTable || b.TableCount == 0 {
			continue
		}
		var buf [8]byte
		for i := uint64(0); i < b.TableCount; i++ {
			slot := b.TableBase + i*b.TableStride
			old, ok := st.ReadMem(slot, b.TableWidth)
			if !ok {
				return 0, 0, fmt.Errorf("patch: cannot read jump table slot %#x", slot)
			}
			nt, ok := rel.Addr(old &^ 1)
			if !ok {
				return 0, 0, fmt.Errorf("patch: jump table slot %#x target %#x not relocated", slot, old)
			}
			binary.LittleEndian.PutUint64(buf[:], nt)
			if err := t.WriteMem(slot, buf[:b.TableWidth]); err != nil {
				return 0, 0, err
			}
		}
	}
	return kind, newEntry, nil
}

// Live instruments functions of a live process in place (the two dynamic
// forms of Figure 1). Each function is relocated into fresh pages of the
// patch area, which Live maps and writes, and spliced in through the
// caller's Target.
type Live struct {
	st   *symtab.Symtab
	mem  Memory
	next uint64 // the patch area's next free page
	// Vars allocates the process's instrumentation variables.
	Vars Vars
}

// NewLive prepares to instrument a process, whose memory is mem, running
// st's image.
func NewLive(st *symtab.Symtab, mem Memory) *Live {
	l := LayoutOf(st.File)
	return &Live{st: st, mem: mem, next: l.PatchArea, Vars: newVars(l.LiveVars, mem)}
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
	fp, err := planFunc(l.st, mode, dataflow.Liveness(fn), fn, reqs, edgeReqs)
	if err != nil {
		return nil, 0, err
	}
	if fp.rel, err = fp.plan.Encode(l.next); err != nil {
		return nil, 0, err
	}
	size := (uint64(len(fp.rel.Code)) + 0xfff) &^ 0xfff
	l.mem.MapRegion(l.next, size)
	if err := l.mem.WriteMem(l.next, fp.rel.Code); err != nil {
		return nil, 0, err
	}
	l.next += size
	kind, _, err := fp.splice(l.st, t)
	return fp.rel, kind, err
}
