package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/stackwalk"
)

// Process is a controlled mutatee with dynamic-instrumentation support
// layered over ProcControl. Both dynamic forms of Figure 1 are available:
// Launch creates the process; Attach adopts a running one.
type Process struct {
	*proc.Process
	Binary *Binary

	live         *patch.Live
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

// undo is the splice Target of one instrumented function: it writes process
// memory and records what restoring the function's original behaviour
// takes.
type undo struct {
	p     *Process
	saved []saved          // overwritten bytes, in write order
	bp    *proc.Breakpoint // the redirect breakpoint (trap rung only)
}

type saved struct {
	addr uint64
	old  []byte
}

// WriteMem saves the bytes an entry patch or a jump-table slot replaces.
func (u *undo) WriteMem(addr uint64, b []byte) error {
	old, err := u.p.ReadMem(addr, len(b))
	if err != nil {
		return err
	}
	u.saved = append(u.saved, saved{addr, old})
	return u.p.WriteMem(addr, b)
}

// Trap installs the trap rung: a ProcControl breakpoint redirects the PC on
// every hit. Slow — each entry costs a stop — but always fits.
func (u *undo) Trap(from, to uint64) error {
	bp, err := u.p.InsertBreakpoint(from)
	if err != nil {
		return err
	}
	bp.Callback = func(pp *proc.Process, _ *proc.Breakpoint) bool {
		pp.SetPC(to)
		return true
	}
	u.bp = bp
	return nil
}

// restore puts back everything the splice changed.
func (u *undo) restore() error {
	if u.bp != nil {
		if err := u.p.RemoveBreakpoint(u.bp); err != nil {
			return err
		}
	}
	for i := len(u.saved) - 1; i >= 0; i-- {
		if err := u.p.WriteMem(u.saved[i].addr, u.saved[i].old); err != nil {
			return err
		}
	}
	return nil
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
	return &Process{
		Process:      p,
		Binary:       b,
		live:         patch.NewLive(b.Symtab, p),
		instrumented: map[uint64]*undo{},
	}
}

// NewVar allocates an instrumentation variable in fresh process memory.
func (p *Process) NewVar(name string, width int) *snippet.Var {
	return p.live.Vars.New(name, width)
}

// ReadVar reads an instrumentation variable's current value.
func (p *Process) ReadVar(v *snippet.Var) (uint64, error) {
	return p.live.Vars.Read(v)
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
	u := &undo{p: p}
	rel, kind, err := p.live.Instrument(u, fn, points, edges, sn, mode)
	if err != nil {
		// Undo a partial splice; the instrumentation error is the one to
		// report.
		_ = u.restore()
		return 0, err
	}
	p.instrumented[fn.Entry] = u
	if p.relocated == nil {
		p.relocated = map[uint64]uint64{}
	}
	old := len(p.xlatPairs)
	rel.EachAddr(func(orig, na uint64) {
		p.xlatPairs = append(p.xlatPairs, xlatPair{newAddr: na, origAddr: orig})
		p.relocated[orig] = na
	})
	// Only the new function's pairs need sorting; they then merge into the
	// sorted pairs before them, usually by staying where they are, because
	// each function is relocated above the last.
	slices.SortFunc(p.xlatPairs[old:], func(a, b xlatPair) int { return cmp.Compare(a.newAddr, b.newAddr) })
	mergePairs(p.xlatPairs, old)
	return kind, nil
}

// mergePairs merges the sorted run s[mid:] into the sorted run s[:mid].
func mergePairs(s []xlatPair, mid int) {
	if mid == 0 || mid == len(s) || s[mid-1].newAddr < s[mid].newAddr {
		return
	}
	merged := make([]xlatPair, 0, len(s))
	a, b := s[:mid], s[mid:]
	for len(a) > 0 && len(b) > 0 {
		if b[0].newAddr < a[0].newAddr {
			merged, b = append(merged, b[0]), b[1:]
		} else {
			merged, a = append(merged, a[0]), a[1:]
		}
	}
	copy(s, append(append(merged, a...), b...))
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
	if err := u.restore(); err != nil {
		return err
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
