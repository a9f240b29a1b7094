package core

import (
	"fmt"
	"sort"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/proc"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/stackwalk"
)

// Process is a controlled mutatee with dynamic-instrumentation support
// layered over ProcControl. Both dynamic forms of Figure 1 are available:
// Launch creates the process; Attach adopts a running one.
type Process struct {
	*proc.Process
	Binary *Binary

	trampNext uint64
	varNext   uint64
	varBase   uint64
	varMapped bool

	instrumented map[uint64]*undo

	// xlatPairs maps relocated instruction addresses back to their original
	// addresses (sorted by relocated address) so the stack walker can
	// attribute frames executing inside patch areas.
	xlatPairs []xlatPair

	// relocated is the forward map: original instruction address to its
	// relocated copy. Tools that must observe execution of instrumented code
	// (the profiler's entry/exit probes) plant their breakpoints at the
	// relocated addresses, since the originals never execute again.
	relocated map[uint64]uint64
}

type xlatPair struct{ newAddr, origAddr uint64 }

// undo records what restoring a function's original behaviour takes.
type undo struct {
	entry uint64
	orig  []byte           // original entry bytes (nil for the trap rung)
	bp    *proc.Breakpoint // the redirect breakpoint (trap rung only)
	// table slots overwritten, with their original contents.
	slots map[uint64][]byte
}

// Launch starts the binary under control, stopped at entry.
func (b *Binary) Launch(model *emu.CostModel) (*Process, error) {
	p, err := proc.Launch(b.File, model)
	if err != nil {
		return nil, err
	}
	return b.adopt(p), nil
}

// Attach wraps an already-running emulated process (the attach form of
// dynamic instrumentation).
func (b *Binary) Attach(cpu *emu.CPU) *Process {
	return b.adopt(proc.Attach(cpu, b.File))
}

func (b *Binary) adopt(p *proc.Process) *Process {
	var end uint64
	for _, r := range b.Symtab.Regions {
		if r.Addr+r.Size > end {
			end = r.Addr + r.Size
		}
	}
	tramp := (end+0xfff)&^0xfff + 0x1000
	return &Process{
		Process:      p,
		Binary:       b,
		trampNext:    tramp,
		varBase:      tramp + 0x200000,
		instrumented: map[uint64]*undo{},
	}
}

// NewVar allocates an instrumentation variable in fresh process memory.
func (p *Process) NewVar(name string, width int) *snippet.Var {
	if !p.varMapped {
		p.MapRegion(p.varBase, 0x10000)
		p.varMapped = true
		p.varNext = p.varBase
	}
	p.varNext = (p.varNext + 7) &^ 7
	v := &snippet.Var{Name: name, Width: width, Addr: p.varNext}
	p.varNext += 8
	return v
}

// ReadVar reads an instrumentation variable's current value.
func (p *Process) ReadVar(v *snippet.Var) (uint64, error) {
	b, err := p.ReadMem(v.Addr, 8)
	if err != nil {
		return 0, err
	}
	var out uint64
	for i := 7; i >= 0; i-- {
		out = out<<8 | uint64(b[i])
	}
	switch v.Width {
	case 1:
		out &= 0xff
	case 2:
		out &= 0xffff
	case 4:
		out &= 0xffffffff
	}
	return out, nil
}

// InstrumentFunction applies sn at the given points of fn by in-memory
// patching: the function is relocated into freshly mapped patch space
// inside the live process, and the original entry is redirected with the
// cheapest jump that fits — falling back, per Section 3.1.2, to a trap
// (breakpoint) that the process-control layer redirects when no jump can be
// encoded.
func (p *Process) InstrumentFunction(fn *parse.Function, points []snippet.Point,
	sn snippet.Snippet, mode codegen.Mode) (patch.PatchKind, error) {
	return p.InstrumentFunctionFull(fn, points, nil, sn, mode)
}

// InstrumentFunctionFull additionally instruments CFG edges (taken /
// not-taken / loop back edges) with the same snippet.
func (p *Process) InstrumentFunctionFull(fn *parse.Function, points []snippet.Point,
	edges []snippet.EdgePoint, sn snippet.Snippet, mode codegen.Mode) (patch.PatchKind, error) {

	if p.instrumented[fn.Entry] != nil {
		// The relocated copy was built from the original code; a second
		// relocation would capture the entry patch and lose the first
		// instrumentation. (Dyninst re-instruments by rebuilding; batching
		// all points into one call is this API's contract.)
		return 0, fmt.Errorf("core: function %s is already instrumented; pass all points in one call", fn.Name)
	}
	lv := dataflow.Liveness(fn)
	var insertions []patch.Insertion
	for _, pt := range points {
		if pt.Func != fn {
			return 0, fmt.Errorf("core: point %v is not in %s", pt, fn.Name)
		}
		var dead []riscv.Reg
		if mode == codegen.ModeDeadRegister {
			dead = lv.DeadScratchX(pt.Addr)
		}
		res, err := codegen.Generate(sn, codegen.Options{
			Arch: p.Binary.Symtab.Extensions, Mode: mode, DeadRegs: dead,
		})
		if err != nil {
			return 0, err
		}
		insertions = append(insertions, patch.Insertion{Addr: pt.Addr, Code: res.Insts})
	}
	var edgeIns []patch.EdgeInsertion
	for _, pt := range edges {
		if pt.Func != fn {
			return 0, fmt.Errorf("core: edge point %v is not in %s", pt, fn.Name)
		}
		var dead []riscv.Reg
		if mode == codegen.ModeDeadRegister {
			dead = lv.DeadScratchX(pt.EdgeDest())
		}
		res, err := codegen.Generate(sn, codegen.Options{
			Arch: p.Binary.Symtab.Extensions, Mode: mode, DeadRegs: dead,
		})
		if err != nil {
			return 0, err
		}
		edgeIns = append(edgeIns, patch.EdgeInsertion{Block: pt.Block, Kind: pt.Kind, Code: res.Insts})
	}

	rel, err := patch.RelocateWithEdges(fn, p.Binary.Symtab, insertions, edgeIns, p.trampNext, p.Binary.Symtab.Extensions)
	if err != nil {
		return 0, err
	}
	size := (uint64(len(rel.Code)) + 0xfff) &^ 0xfff
	p.MapRegion(p.trampNext, size)
	if err := p.WriteMem(rel.NewBase, rel.Code); err != nil {
		return 0, err
	}
	p.trampNext += size
	if p.relocated == nil {
		p.relocated = map[uint64]uint64{}
	}
	rel.EachAddr(func(orig, na uint64) {
		p.xlatPairs = append(p.xlatPairs, xlatPair{newAddr: na, origAddr: orig})
		p.relocated[orig] = na
	})
	sort.Slice(p.xlatPairs, func(i, j int) bool { return p.xlatPairs[i].newAddr < p.xlatPairs[j].newAddr })

	u := &undo{entry: fn.Entry, slots: map[uint64][]byte{}}

	// Repoint jump tables at the relocated blocks.
	for _, blk := range fn.Blocks {
		if blk.Purpose != parse.PurposeJumpTable || blk.TableCount == 0 {
			continue
		}
		for i := uint64(0); i < blk.TableCount; i++ {
			slot := blk.TableBase + i*blk.TableStride
			old, ok := p.Binary.Symtab.ReadMem(slot, blk.TableWidth)
			if !ok {
				return 0, fmt.Errorf("core: cannot read jump table slot %#x", slot)
			}
			nt, ok := rel.Addr(old &^ 1)
			if !ok {
				return 0, fmt.Errorf("core: table target %#x not relocated", old)
			}
			buf := make([]byte, blk.TableWidth)
			for j := range buf {
				buf[j] = byte(nt >> (8 * j))
			}
			prev, err := p.ReadMem(slot, blk.TableWidth)
			if err != nil {
				return 0, err
			}
			u.slots[slot] = prev
			if err := p.WriteMem(slot, buf); err != nil {
				return 0, err
			}
		}
	}

	// Entry redirection.
	_, hi := fn.Extent()
	room := hi - fn.Entry
	scratch := riscv.RegNone
	if dead := lv.DeadScratchX(fn.Entry); len(dead) > 0 {
		scratch = dead[0]
	}
	newEntry, _ := rel.Addr(fn.Entry)
	kind, bytes, err := patch.JumpPatch(fn.Entry, newEntry, room, p.Binary.Symtab.Extensions, scratch, true)
	if err != nil {
		return 0, err
	}
	p.instrumented[fn.Entry] = u
	if kind == patch.PatchTrap {
		// The trap rung: a ProcControl breakpoint redirects the PC on every
		// hit. Slow — each entry costs a stop — but always fits.
		bp, err := p.InsertBreakpoint(fn.Entry)
		if err != nil {
			return 0, err
		}
		bp.Callback = func(pp *proc.Process, _ *proc.Breakpoint) bool {
			pp.SetPC(newEntry)
			return true
		}
		u.bp = bp
		return kind, nil
	}
	orig, err := p.ReadMem(fn.Entry, len(bytes))
	if err != nil {
		return 0, err
	}
	u.orig = orig
	if err := p.WriteMem(fn.Entry, bytes); err != nil {
		return 0, err
	}
	return kind, nil
}

// Uninstrument restores the function's original entry (and any repointed
// jump-table slots), detaching its instrumentation — the relocated copy
// stays mapped but unreachable. This is the removal half of dynamic
// instrumentation's appeal: the mutatee returns to native behaviour
// without a restart.
func (p *Process) Uninstrument(fn *parse.Function) error {
	u := p.instrumented[fn.Entry]
	if u == nil {
		return fmt.Errorf("core: function %s is not instrumented", fn.Name)
	}
	if u.bp != nil {
		if err := p.RemoveBreakpoint(u.bp); err != nil {
			return err
		}
	}
	if u.orig != nil {
		if err := p.WriteMem(u.entry, u.orig); err != nil {
			return err
		}
	}
	for slot, prev := range u.slots {
		if err := p.WriteMem(slot, prev); err != nil {
			return err
		}
	}
	delete(p.instrumented, fn.Entry)
	return nil
}

// Probe registers a Go callback to run whenever execution reaches addr
// (trap-based inspection: tracing tools use this without patching code).
func (p *Process) Probe(addr uint64, fn func(*Process)) error {
	bp, err := p.InsertBreakpoint(addr)
	if err != nil {
		return err
	}
	self := p
	bp.Callback = func(_ *proc.Process, _ *proc.Breakpoint) bool {
		fn(self)
		return true
	}
	return nil
}

// RelocatedAddr maps an original instruction address to the address of its
// relocated copy in the patch area, when the containing function has been
// instrumented. Probes meant to fire during instrumented execution must
// target the relocated address — the original bytes are bypassed by the
// entry patch.
func (p *Process) RelocatedAddr(orig uint64) (uint64, bool) {
	na, ok := p.relocated[orig]
	return na, ok
}

// TranslatePC maps a program counter inside a patch area back to the
// original address its instruction was relocated from; other addresses pass
// through unchanged.
func (p *Process) TranslatePC(pc uint64) uint64 {
	n := len(p.xlatPairs)
	if n == 0 || pc < p.xlatPairs[0].newAddr {
		return pc
	}
	// Only translate inside the patch area (above the original image).
	if _, inOrig := p.Binary.CFG.FuncContaining(pc); inOrig {
		return pc
	}
	i := sort.Search(n, func(i int) bool { return p.xlatPairs[i].newAddr > pc }) - 1
	if i < 0 {
		return pc
	}
	// Within a short reach of the mapped instruction (snippet code between
	// mapped originals attributes to the preceding one).
	if pc-p.xlatPairs[i].newAddr > 4096 {
		return pc
	}
	return p.xlatPairs[i].origAddr
}

// Walk collects the current call stack with the default frame steppers,
// translating patch-area PCs back to original addresses.
func (p *Process) Walk() ([]stackwalk.Frame, error) {
	w := stackwalk.New(p.Binary.CFG, p.Process)
	w.Translate = p.TranslatePC
	return w.Walk()
}
