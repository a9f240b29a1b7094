package main

import (
	"fmt"
	"strings"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// fib-dbi runs recursive fib under the dynamic instrumentation engine with a
// call counter probed at fib's entry. Every return is an indirect jump and
// there are only a few translations per run, so its time goes to the
// indirect-branch lookup path; the static parser and rewriter are not used.
// Its input is fixed: the seed does not change it.
const (
	fibArg   = 18
	fibWant  = 2584 // fib(18)
	fibCalls = 8361 // calls of fib(18): 2*fib(19) - 1
)

type fibInst struct {
	file    *elfrv.File
	fibAddr uint64
	reg     *obs.Registry
	emuM    *emu.Metrics
	dbiM    dbi.Metrics
	ref     *fibRef
	acc     layerAcc
}

type fibRef struct {
	nativeInstret, nativeCycles uint64
	rawInstret, rawCycles       uint64
	snippetInsts                int
}

func setupFibDBI(env *runEnv) (instance, error) {
	src := strings.Replace(workload.FibSource, "li a0, 12", fmt.Sprintf("li a0, %d", fibArg), 1)
	if src == workload.FibSource {
		return nil, fmt.Errorf("fib source no longer loads its argument with \"li a0, 12\"")
	}
	f, err := env.assemble(src)
	if err != nil {
		return nil, err
	}
	sym, ok := f.Symbol("fib")
	if !ok {
		return nil, fmt.Errorf("no fib symbol")
	}
	m := &fibInst{file: f, fibAddr: sym.Value}
	if env.spans != nil {
		m.reg = obs.NewRegistry()
		m.emuM = emu.NewMetrics(m.reg)
		m.dbiM = dbi.NewMetrics(m.reg)
	}
	return m, nil
}

// dbiRun launches the program, attaches the engine, probes fib's entry with
// a counter and continues to exit. It returns the process, the counter and
// the count.
func (m *fibInst) dbiRun(o *opRec) (*proc.Process, *snippet.Var, uint64, error) {
	s := o.span("proc.launch")
	p, err := proc.Launch(m.file, emu.P550())
	s.end()
	if err != nil {
		return nil, nil, 0, err
	}
	opts := dbi.Options{}
	if o.traced() {
		p.CPU().Obs = m.emuM
		opts.Obs = m.dbiM
	}
	s = o.span("dbi.attach")
	e, err := dbi.Attach(p, m.file, opts)
	s.end()
	if err != nil {
		return nil, nil, 0, err
	}
	s = o.span("dbi.probe")
	v := e.NewVar("calls", 8)
	err = e.ProbeAt(m.fibAddr, snippet.Increment(v))
	s.end()
	if err != nil {
		return nil, nil, 0, err
	}
	s = o.span("dbi.run")
	ev, err := e.Continue()
	s.end()
	o.done()
	if err != nil {
		return nil, nil, 0, err
	}
	if ev.Kind != proc.EventExit {
		return nil, nil, 0, fmt.Errorf("stopped with %v, not exit", ev.Kind)
	}
	calls, err := e.ReadVar(v)
	return p, v, calls, err
}

func (m *fibInst) op(_ int, o *opRec) error {
	o.begin()
	p, _, calls, err := m.dbiRun(o)
	if err != nil {
		return err
	}
	if o.traced() {
		m.acc.addRun(p.CPU().Instret, p.CPU().Cycles)
	}
	return checkFib(p.ExitCode(), calls)
}

// checkFib compares a run's exit code and call count with their closed
// forms.
func checkFib(exit int, calls uint64) error {
	if exit != fibWant {
		return fmt.Errorf("exit code %d, want fib(%d) = %d", exit, fibArg, fibWant)
	}
	if calls != fibCalls {
		return fmt.Errorf("probe counted %d calls, want %d", calls, fibCalls)
	}
	return nil
}

// reference checks the closed forms against the reference interpreter on
// the uninstrumented program and takes the native and DBI totals for
// overhead_pct.
func (m *fibInst) reference() error {
	r, err := refRun(m.file, map[uint64]string{m.fibAddr: "fib"})
	if err != nil {
		return err
	}
	if err := checkFib(r.exit, r.visits["fib"]); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	native, _, err := emuRun(m.file)
	if err != nil {
		return err
	}
	p, v, calls, err := m.dbiRun(nil)
	if err != nil {
		return err
	}
	if err := checkFib(p.ExitCode(), calls); err != nil {
		return err
	}
	// The engine lowers probes with no liveness information.
	res, err := codegen.Generate(snippet.Increment(v), codegen.Options{})
	if err != nil {
		return err
	}
	m.ref = &fibRef{
		nativeInstret: native.Instret, nativeCycles: native.Cycles,
		rawInstret: p.CPU().Instret, rawCycles: p.CPU().Cycles,
		snippetInsts: len(res.Insts),
	}
	return nil
}

func (m *fibInst) finish() (int, error) { return 0, nil }

func (m *fibInst) layerMetrics(out map[string]float64, w *window) error {
	m.acc.put(out, w)
	emuCounters(out, m.reg, w.traced)
	dbiCounters(out, m.reg, w.traced)
	out["dbi.raw_per_native"] = float64(m.ref.rawInstret) / float64(m.ref.nativeInstret)
	out["overhead_pct"] = 100 * (float64(m.ref.rawCycles)/float64(m.ref.nativeCycles) - 1)
	out["guest_mips"] = ratio(float64(m.ref.nativeInstret)*float64(w.traced), float64(w.attr.self["dbi.run"].Nanoseconds())/1e3)
	out["codegen.snippet_insts"] = float64(m.ref.snippetInsts)
	return nil
}

func (m *fibInst) close() {}
