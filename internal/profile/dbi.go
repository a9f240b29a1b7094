package profile

import (
	"fmt"
	"sort"

	"rvdyn/internal/core"
	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
)

// RunDBI profiles one binary to completion through the dynamic binary
// instrumentation engine instead of the static rewriter: call-count
// Increment snippets are woven into the code cache at translation time, so
// attaching requires no binary rewrite and works on code the static analyzer
// cannot relocate (including self-modifying code).
//
// The trade-off is cycle attribution. Run drives a host-side shadow stack
// from trap probes, but translated code executes in chained cache blocks
// precisely to avoid host round trips, so RunDBI has no per-call events to
// attribute intervals with: every cycle lands in the root row and the
// per-function Cycles columns are zero. Call counts are exact and match Run.
func RunDBI(f *elfrv.File, opts Options) (*Report, error) {
	model := opts.Model
	if model == nil {
		model = emu.P550()
	}
	bin, err := core.FromFile(f)
	if err != nil {
		return nil, err
	}
	p, err := proc.Launch(f, model)
	if err != nil {
		return nil, err
	}
	p.CPU().Dispatch = opts.Dispatch
	if opts.Obs != nil {
		p.CPU().Obs = emu.NewMetrics(opts.Obs)
	}
	var m dbi.Metrics
	if opts.Obs != nil {
		m = dbi.NewMetrics(opts.Obs)
	}
	e, err := dbi.Attach(p, f, dbi.Options{Mode: opts.Mode, Obs: m, NoCounterVirt: opts.NoCounterVirt})
	if err != nil {
		return nil, err
	}

	rootName := "_start"
	rootFn, haveRoot := bin.CFG.FuncContaining(f.Entry)
	if haveRoot {
		rootName = rootFn.Name
	}
	funcs := opts.Funcs
	if len(funcs) == 0 {
		for _, fn := range bin.Functions() {
			if fn.Name == "" || (haveRoot && fn.Entry == rootFn.Entry) {
				continue
			}
			funcs = append(funcs, fn.Name)
		}
		sort.Strings(funcs)
	}

	rows := make([]Row, 0, len(funcs)+1)
	rows = append(rows, Row{Name: rootName, Calls: 1})

	callVars := make([]*snippet.Var, 0, len(funcs))
	for _, name := range funcs {
		fn, err := bin.FindFunction(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Name: name})
		v := e.NewVar("prof_calls_"+name, 8)
		callVars = append(callVars, v)
		if err := e.Probe(fn, snippet.Increment(v)); err != nil {
			return nil, fmt.Errorf("profile: probing %s: %w", name, err)
		}
	}

	ev, err := e.ContinueBudget(opts.MaxInst)
	if err != nil {
		return nil, err
	}
	if ev.Kind != proc.EventExit {
		return nil, fmt.Errorf("profile: dbi run stopped with %v, not exit", ev.Kind)
	}

	for i := range funcs {
		calls, err := e.ReadVar(callVars[i])
		if err != nil {
			return nil, err
		}
		rows[i+1].Calls = calls
	}

	// Report the virtualized (compensated) totals: the cycles and
	// instructions the native program retired, with the code-cache and
	// probe overhead subtracted out by the per-translation deltas. With
	// NoCounterVirt the raw (inflated) counters are reported instead —
	// their difference is the true dynamic-mode overhead.
	rep := &Report{
		TotalCycles: p.CPU().Cycles,
		TotalInsts:  p.CPU().Instret,
		ExitCode:    p.ExitCode(),
	}
	if !opts.NoCounterVirt {
		comp := e.Comp()
		rep.TotalCycles = uint64(int64(rep.TotalCycles) - comp.ExtraCycles)
		rep.TotalInsts = uint64(int64(rep.TotalInsts) - comp.ExtraInstret)
	}
	// All cycles charge to the root row so the table still sums to the total.
	rows[0].Cycles = rep.TotalCycles
	rep.Rows = rows
	sort.SliceStable(rep.Rows, func(i, j int) bool { return rep.Rows[i].Cycles > rep.Rows[j].Cycles })
	return rep, nil
}
