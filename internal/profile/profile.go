// Package profile is a sampling-free function profiler built from the
// toolkit's own instrumentation primitives (the "Performance" tool family of
// the paper's title): call counts come from Increment snippets patched in at
// function entry, and cycle attribution comes from trap probes at the
// relocated entry and exit instructions driving a host-side shadow stack.
//
// Attribution is exclusive: the interval between two consecutive probe
// events is charged to the function on top of the shadow stack, so every
// retired cycle lands in exactly one row and the table's total equals the
// emulator's cycle counter exactly — including under recursion, where a
// frame's self-time excludes its callees' time. (An inclusive design that
// snapshots the cycle CSR at entry and subtracts at exit double-counts
// nested calls and cannot sum to the total.)
//
// A Guest value says how the profiled program runs, on the emulator or
// under the DBI engine; it is shared with the sampling profiler in
// package profile/sample, and Guest.Exec is the one launcher under both.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
)

// Engine selects how a profiled program executes.
type Engine int

const (
	// EngineEmu runs the program directly on the emulator.
	EngineEmu Engine = iota
	// EngineDBI runs it under the dynamic binary instrumentation engine:
	// blocks translate into a code cache at first execution, with probes
	// woven in, and the retired counters are virtualized (the code-cache
	// overhead subtracted) unless NoCounterVirt.
	EngineDBI
)

// Guest configures how a profiler runs its program: one value shared by
// Run and sample.Run.
type Guest struct {
	// Model is the cost model; nil means emu.P550().
	Model *emu.CostModel
	// Engine selects the execution engine (default EngineEmu).
	Engine Engine
	// Dispatch selects the emulator's dispatch tiers under either engine
	// (default emu.DispatchTrace), for A/B overhead comparisons. Reports
	// and profiles are identical at every value.
	Dispatch emu.Dispatch
	// NoCounterVirt (EngineDBI only) disables counter virtualization: the
	// totals and any guest rdcycle/rdinstret reads expose the raw
	// translation-inflated counters instead of native-identical values.
	NoCounterVirt bool
	// MaxInst bounds the run (0 = unlimited); a run the budget stops
	// before exit is an error.
	MaxInst uint64
	// Obs, when non-nil, attaches emulator and DBI engine metrics to the
	// run; the profilers record their own counters there too.
	Obs *obs.Registry
}

// Launched is a program started by Guest.Exec.
type Launched struct {
	Bin  *core.Binary
	Proc *core.Process
	// DBI is the attached engine under EngineDBI, nil under EngineEmu.
	DBI   *dbi.Engine
	Model *emu.CostModel
	// Cycles and Insts are the retired totals at exit, with the code-cache
	// overhead subtracted under EngineDBI unless NoCounterVirt.
	Cycles, Insts uint64
}

// Exec launches f as g configures it, passes it to setup to install
// probes or a sampler (mode is the register allocation of DBI probe
// code), runs it to exit within g.MaxInst and records the retired totals.
func (g Guest) Exec(f *elfrv.File, mode codegen.Mode, setup func(*Launched) error) (*Launched, error) {
	l := &Launched{Model: g.Model}
	if l.Model == nil {
		l.Model = emu.P550()
	}
	var err error
	if l.Bin, err = core.FromFile(f); err != nil {
		return nil, err
	}
	if l.Proc, err = l.Bin.Launch(l.Model); err != nil {
		return nil, err
	}
	cpu := l.Proc.CPU()
	cpu.Dispatch = g.Dispatch
	if g.Obs != nil {
		cpu.Obs = emu.NewMetrics(g.Obs)
	}
	cont := l.Proc.ContinueBudget
	if g.Engine == EngineDBI {
		var m dbi.Metrics
		if g.Obs != nil {
			m = dbi.NewMetrics(g.Obs)
		}
		l.DBI, err = dbi.Attach(l.Proc.Process, f, dbi.Options{Mode: mode, Obs: m, NoCounterVirt: g.NoCounterVirt})
		if err != nil {
			return nil, err
		}
		cont = l.DBI.ContinueBudget
	}
	if err := setup(l); err != nil {
		return nil, err
	}
	ev, err := cont(g.MaxInst)
	if err != nil {
		return nil, err
	}
	if ev.Kind != proc.EventExit {
		return nil, fmt.Errorf("profile: run stopped with %v, not exit", ev.Kind)
	}
	l.Cycles, l.Insts = cpu.Cycles, cpu.Instret
	if l.DBI != nil && !g.NoCounterVirt {
		comp := l.DBI.Comp()
		l.Cycles = uint64(int64(l.Cycles) - comp.ExtraCycles)
		l.Insts = uint64(int64(l.Insts) - comp.ExtraInstret)
	}
	return l, nil
}

// Options configures one profiling run.
type Options struct {
	Guest
	// Funcs lists the functions to profile. Empty profiles every named
	// function except the one containing the ELF entry point (which becomes
	// the residual root row).
	Funcs []string
	// Mode is the snippet register-allocation strategy for the call-count
	// instrumentation.
	Mode codegen.Mode
	// Trace, when non-nil, records one span per profiled call (EngineEmu
	// only) on row traceTID, timestamped on the guest's virtual clock, so
	// the call tree renders in Perfetto exactly as it nested at runtime.
	Trace *obs.Tracer
}

// traceTID is the trace row of the per-call spans.
const traceTID = 1

// Row is one function's line in the profile.
type Row struct {
	Name   string
	Calls  uint64
	Cycles uint64 // exclusive (self) cycles
}

// Report is a completed profile.
type Report struct {
	// Rows, descending by exclusive cycles. The root row (the entry
	// function) carries every cycle not spent inside a profiled function.
	Rows []Row
	// TotalCycles is the emulator's retired-cycle counter at exit; the sum
	// of all rows equals it exactly.
	TotalCycles uint64
	// TotalInsts is the retired-instruction counter at exit.
	TotalInsts uint64
	ExitCode   int
}

// String renders the profile as the table `rvdyn profile` prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %14s %7s\n", "FUNCTION", "CALLS", "CYCLES", "CYC%")
	for _, row := range r.Rows {
		pct := 0.0
		if r.TotalCycles > 0 {
			pct = 100 * float64(row.Cycles) / float64(r.TotalCycles)
		}
		fmt.Fprintf(&b, "%-20s %10d %14d %6.2f%%\n", row.Name, row.Calls, row.Cycles, pct)
	}
	fmt.Fprintf(&b, "%-20s %10s %14d %6.2f%%\n", "total", "", r.TotalCycles, 100.0)
	return b.String()
}

// frame is one live call on the shadow stack.
type frame struct {
	idx   int    // row index
	start uint64 // cycle count at entry (for the trace span)
}

// startRows returns a report's root row and the functions to profile:
// want, or by default every named function but the root, sorted. The root
// row absorbs time outside every profiled function; it is the function
// holding the ELF entry point (conventionally _start). rows has room for
// one row per function after it.
func startRows(bin *core.Binary, entry uint64, want []string) (rows []Row, funcs []string) {
	rootName := "_start"
	rootFn, haveRoot := bin.CFG.FuncContaining(entry)
	if haveRoot {
		rootName = rootFn.Name
	}
	funcs = want
	if len(funcs) == 0 {
		for _, fn := range bin.Functions() {
			if fn.Name == "" || (haveRoot && fn.Entry == rootFn.Entry) {
				continue
			}
			funcs = append(funcs, fn.Name)
		}
		sort.Strings(funcs)
	}
	rows = make([]Row, 0, len(funcs)+1)
	rows = append(rows, Row{Name: rootName, Calls: 1})
	return rows, funcs
}

// Run profiles one binary to completion. Both engines count calls with
// the same Increment snippet at each function entry; only its delivery
// differs. Under EngineEmu it is patched into a relocated copy of the
// function, and trap probes at the relocated entry and exit instructions
// drive the shadow stack. Under EngineDBI it is woven into the code cache
// at translation time, which needs no rewrite and works on code the static
// analyzer cannot relocate (including self-modifying code); translated code
// runs in chained cache blocks precisely to avoid host round trips, so
// there are no per-call events to attribute intervals with, and every
// cycle lands in the root row.
func Run(f *elfrv.File, opts Options) (*Report, error) {
	const rootIdx = 0
	var (
		rows     []Row
		callVars []*snippet.Var
		// Shadow stack (EngineEmu): probes attribute the cycles since the
		// previous event to the current top, then push (entry) or pop
		// (exit). lastMark starts at the launch-time cycle count, so the
		// intervals partition the whole run.
		stack     []frame
		lastMark  uint64
		attribute func()
	)
	l, err := opts.Exec(f, opts.Mode, func(l *Launched) error {
		var funcs []string
		rows, funcs = startRows(l.Bin, f.Entry, opts.Funcs)
		p, model := l.Proc, l.Model
		var probeHits *obs.Counter
		if l.DBI == nil {
			probeHits = opts.Obs.Counter("profile.probe_hits")
		}
		lastMark = p.CPU().Cycles
		attribute = func() {
			now := p.CPU().Cycles
			top := rootIdx
			if len(stack) > 0 {
				top = stack[len(stack)-1].idx
			}
			rows[top].Cycles += now - lastMark
			lastMark = now
		}
		for _, name := range funcs {
			fn, err := l.Bin.FindFunction(name)
			if err != nil {
				return err
			}
			idx := len(rows)
			rows = append(rows, Row{Name: name})
			if l.DBI != nil {
				v := l.DBI.NewVar("prof_calls_"+name, 8)
				callVars = append(callVars, v)
				if err := l.DBI.Probe(fn, snippet.Increment(v)); err != nil {
					return fmt.Errorf("profile: probing %s: %w", name, err)
				}
				continue
			}

			// Call counting runs inside the mutatee: an Increment snippet at
			// the (relocated) function entry, the paper's canonical
			// instrumentation.
			v := p.NewVar("prof_calls_"+name, 8)
			callVars = append(callVars, v)
			pts := []snippet.Point{snippet.FuncEntry(fn)}
			if _, err := p.InstrumentFunction(fn, pts, snippet.Increment(v), opts.Mode); err != nil {
				return fmt.Errorf("profile: instrumenting %s: %w", name, err)
			}

			// Cycle attribution is host-side: probes at the RELOCATED entry
			// and exit instructions (the originals never execute once the
			// entry is patched) drive the shadow stack.
			entryAddr, ok := p.RelocatedAddr(fn.Entry)
			if !ok {
				return fmt.Errorf("profile: %s has no relocated entry", name)
			}
			if err := p.Probe(entryAddr, func(*core.Process) {
				probeHits.Inc()
				attribute()
				stack = append(stack, frame{idx: idx, start: p.CPU().Cycles})
			}); err != nil {
				return err
			}
			for _, ex := range snippet.FuncExits(fn) {
				exitAddr, ok := p.RelocatedAddr(ex.Addr)
				if !ok {
					return fmt.Errorf("profile: %s: exit %#x not relocated", name, ex.Addr)
				}
				if err := p.Probe(exitAddr, func(*core.Process) {
					probeHits.Inc()
					attribute()
					if n := len(stack); n > 0 && stack[n-1].idx == idx {
						fr := stack[n-1]
						stack = stack[:n-1]
						if opts.Trace != nil {
							// Span on the guest's virtual clock: start and
							// duration derive from the cycle counter through
							// the cost model, so nesting matches the real
							// call tree.
							start := time.Duration(model.Nanos(fr.start))
							end := time.Duration(model.Nanos(p.CPU().Cycles))
							opts.Trace.Complete(traceTID, name, "profile.call",
								start, end-start, nil)
						}
					}
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	readVar := l.Proc.ReadVar
	if l.DBI != nil {
		// All cycles charge to the root row so the table still sums to
		// the total.
		rows[rootIdx].Cycles = l.Cycles
		readVar = l.DBI.ReadVar
	} else {
		attribute() // residual cycles since the last probe go to the current top
	}
	for i, v := range callVars {
		calls, err := readVar(v)
		if err != nil {
			return nil, err
		}
		rows[i+1].Calls = calls
	}

	rep := &Report{Rows: rows, TotalCycles: l.Cycles, TotalInsts: l.Insts, ExitCode: l.Proc.ExitCode()}
	sort.SliceStable(rep.Rows, func(i, j int) bool { return rep.Rows[i].Cycles > rep.Rows[j].Cycles })
	return rep, nil
}
