package core

import (
	"fmt"

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
	// walker serves every Walk. Its stack-height cache is keyed by original
	// function entry and it reads provenance through live's table, so
	// instrumenting and uninstrumenting leave it valid.
	walker *stackwalk.Walker
}

// undo is the splice Target of one instrumented function: it writes process
// memory and records what restoring the function's original behaviour
// takes.
type undo struct {
	p     *Process
	rel   *patch.Relocation
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
	u.rel = rel
	p.instrumented[fn.Entry] = u
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
// relocated copy in the patch area, when the containing function is
// instrumented. Tools that must observe execution of instrumented code (the
// profiler's entry and exit probes) target the relocated address — the
// original bytes are bypassed by the entry patch.
func (p *Process) RelocatedAddr(orig uint64) (uint64, bool) {
	if fn, ok := p.Binary.CFG.FuncContaining(orig); ok && p.instrumented[fn.Entry] != nil {
		return p.instrumented[fn.Entry].rel.Addr(orig)
	}
	return 0, false
}

// Provenance returns the table mapping patch-area code to the original.
func (p *Process) Provenance() *patch.Provenance { return &p.live.Prov }

// Walk collects the current call stack with the default frame steppers,
// attributing patch-area PCs to the original instructions they run for.
func (p *Process) Walk() ([]stackwalk.Frame, error) {
	if p.walker == nil {
		p.walker = stackwalk.New(p.Binary.CFG, p.Process, p.Provenance())
	}
	return p.walker.Walk()
}
