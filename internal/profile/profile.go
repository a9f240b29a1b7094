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
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
)

// Options configures one profiling run.
type Options struct {
	// Model is the cost model; nil means emu.P550().
	Model *emu.CostModel
	// Funcs lists the functions to profile. Empty profiles every named
	// function except the one containing the ELF entry point (which becomes
	// the residual root row).
	Funcs []string
	// Mode is the snippet register-allocation strategy for the call-count
	// instrumentation.
	Mode codegen.Mode
	// Obs, when non-nil, also attaches emulator metrics to the run and
	// records profiler counters (profile.probe_hits).
	Obs *obs.Registry
	// Trace, when non-nil, records one span per profiled call on TraceTID,
	// timestamped on the guest's virtual clock, so the call tree renders in
	// Perfetto exactly as it nested at runtime.
	Trace    *obs.Tracer
	TraceTID int
	// MaxInst bounds the run (0 = unlimited).
	MaxInst uint64
	// NoCounterVirt (RunDBI only) disables counter virtualization: the
	// report's totals and any guest rdcycle/rdinstret reads expose the raw
	// translation-inflated counters instead of native-identical values.
	NoCounterVirt bool
	// Dispatch selects the emulator's dispatch tiers (default
	// emu.DispatchTrace), for A/B overhead comparisons.
	Dispatch emu.Dispatch
}

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

// Run profiles one binary to completion.
func Run(f *elfrv.File, opts Options) (*Report, error) {
	model := opts.Model
	if model == nil {
		model = emu.P550()
	}
	bin, err := core.FromFile(f)
	if err != nil {
		return nil, err
	}
	p, err := bin.Launch(model)
	if err != nil {
		return nil, err
	}
	p.CPU().Dispatch = opts.Dispatch
	if opts.Obs != nil {
		p.CPU().Obs = emu.NewMetrics(opts.Obs)
	}

	rows, funcs := startRows(bin, f.Entry, opts.Funcs)
	const rootIdx = 0

	probeHits := opts.Obs.Counter("profile.probe_hits")

	// Shadow stack: probes attribute the cycles since the previous event to
	// the current top, then push (entry) or pop (exit). lastMark starts at
	// the launch-time cycle count, so the intervals partition the whole run.
	var stack []frame
	lastMark := p.CPU().Cycles
	attribute := func() {
		now := p.CPU().Cycles
		top := rootIdx
		if len(stack) > 0 {
			top = stack[len(stack)-1].idx
		}
		rows[top].Cycles += now - lastMark
		lastMark = now
	}

	callVars := make([]*snippet.Var, 0, len(funcs))
	for _, name := range funcs {
		fn, err := bin.FindFunction(name)
		if err != nil {
			return nil, err
		}
		idx := len(rows)
		rows = append(rows, Row{Name: name})

		// Call counting runs inside the mutatee: an Increment snippet at the
		// (relocated) function entry, the paper's canonical instrumentation.
		v := p.NewVar("prof_calls_"+name, 8)
		callVars = append(callVars, v)
		pts := []snippet.Point{snippet.FuncEntry(fn)}
		if _, err := p.InstrumentFunction(fn, pts, snippet.Increment(v), opts.Mode); err != nil {
			return nil, fmt.Errorf("profile: instrumenting %s: %w", name, err)
		}

		// Cycle attribution is host-side: probes at the RELOCATED entry and
		// exit instructions (the originals never execute once the entry is
		// patched) drive the shadow stack.
		entryAddr, ok := p.RelocatedAddr(fn.Entry)
		if !ok {
			return nil, fmt.Errorf("profile: %s has no relocated entry", name)
		}
		if err := p.Probe(entryAddr, func(*core.Process) {
			probeHits.Inc()
			attribute()
			stack = append(stack, frame{idx: idx, start: p.CPU().Cycles})
		}); err != nil {
			return nil, err
		}
		for _, ex := range snippet.FuncExits(fn) {
			exitAddr, ok := p.RelocatedAddr(ex.Addr)
			if !ok {
				return nil, fmt.Errorf("profile: %s: exit %#x not relocated", name, ex.Addr)
			}
			if err := p.Probe(exitAddr, func(*core.Process) {
				probeHits.Inc()
				attribute()
				if n := len(stack); n > 0 && stack[n-1].idx == idx {
					fr := stack[n-1]
					stack = stack[:n-1]
					if opts.Trace != nil {
						// Span on the guest's virtual clock: start/duration
						// derive from the cycle counter through the cost
						// model, so nesting matches the real call tree.
						start := time.Duration(model.Nanos(fr.start))
						end := time.Duration(model.Nanos(p.CPU().Cycles))
						opts.Trace.Complete(opts.TraceTID, name, "profile.call",
							start, end-start, nil)
					}
				}
			}); err != nil {
				return nil, err
			}
		}
	}

	ev, err := p.ContinueBudget(opts.MaxInst)
	if err != nil {
		return nil, err
	}
	if ev.Kind != proc.EventExit {
		return nil, fmt.Errorf("profile: run stopped with %v, not exit", ev.Kind)
	}
	attribute() // residual cycles since the last probe go to the current top

	for i := range funcs {
		calls, err := p.ReadVar(callVars[i])
		if err != nil {
			return nil, err
		}
		rows[i+1].Calls = calls
	}

	rep := &Report{
		TotalCycles: p.CPU().Cycles,
		TotalInsts:  p.CPU().Instret,
		ExitCode:    p.ExitCode(),
	}
	rep.Rows = rows
	sort.SliceStable(rep.Rows, func(i, j int) bool { return rep.Rows[i].Cycles > rep.Rows[j].Cycles })
	return rep, nil
}
