package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/oracle"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
)

// rewriteSpec is what one static rewrite instruments: a counter per
// function, named and laid out the way rvdynd does it ("ctr_<function>",
// in spec order), incremented at the function's entry or at every block
// entry, with dead-register snippet code.
type rewriteSpec struct {
	funcs   []string // nil: every parsed function
	points  string   // "entry" or "blocks"
	workers int      // parse and rewrite worker pool width
}

// rewritten is one instrumented binary and what the rewrite did.
type rewritten struct {
	elf      []byte
	file     *elfrv.File
	counters map[string]uint64 // function -> counter address
	st       *symtab.Symtab
	cfg      *parse.CFG
	lc       *patch.LivenessCache
	funcs    []*parse.Function
	points   []snippet.Point
	patches  []patch.PatchRecord
}

// rewrite runs the static rewriter over f through the layers' public
// functions, one span per layer call: symtab, parse, liveness (the
// benchmark fills the cache the rewriter then uses), plan, rewrite and
// serialization. The input file is left untouched.
func rewrite(o *opRec, f *elfrv.File, sp rewriteSpec) (*rewritten, error) {
	s := o.span("symtab.build")
	st, err := symtab.FromFile(f)
	s.end()
	if err != nil {
		return nil, fmt.Errorf("symtab: %w", err)
	}
	s = o.span("parse.parse")
	cfg, err := parse.Parse(st, parse.Options{Workers: sp.workers})
	s.end()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	r := &rewritten{st: st, cfg: cfg, counters: map[string]uint64{}, funcs: cfg.Funcs}
	if sp.funcs != nil {
		r.funcs = make([]*parse.Function, len(sp.funcs))
		for i, name := range sp.funcs {
			fn, ok := cfg.FuncByName(name)
			if !ok {
				return nil, fmt.Errorf("no function %q", name)
			}
			r.funcs[i] = fn
		}
	}

	s = o.span("dataflow.liveness")
	r.lc = patch.NewLivenessCache()
	for _, fn := range r.funcs {
		r.lc.For(fn)
	}
	s.end()

	s = o.span("patch.plan")
	rw := patch.NewRewriter(st, cfg, codegen.ModeDeadRegister)
	rw.Jobs = sp.workers
	rw.SetLivenessCache(r.lc)
	for _, fn := range r.funcs {
		v := rw.NewVar("ctr_"+fn.Name, 8)
		r.counters[fn.Name] = v.Addr
		pts := snippet.BlockEntries(fn)
		if sp.points == "entry" {
			pts = []snippet.Point{snippet.FuncEntry(fn)}
		}
		for _, pt := range pts {
			if err := rw.InsertSnippet(pt, snippet.Increment(v)); err != nil {
				s.end()
				return nil, err
			}
		}
		r.points = append(r.points, pts...)
	}
	ps, err := rw.Plan()
	s.end()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}

	s = o.span("patch.rewrite")
	out, err := rw.RewriteWithPlans(ps)
	s.endWithPhases(
		phase{"patch.layout", rw.Phases.Layout},
		phase{"patch.encode", rw.Phases.Encode},
		phase{"patch.splice", rw.Phases.Splice},
	)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %w", err)
	}
	s = o.span("elfrv.write")
	r.elf, err = out.Write()
	s.end()
	if err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	r.file, r.patches = out, rw.Patches
	return r, nil
}

// snippetInsts is the mean number of instructions codegen lowers one
// counter increment to over the rewrite's points, with the same dead
// registers the rewriter had.
func (r *rewritten) snippetInsts() (float64, error) {
	if len(r.points) == 0 {
		return 0, nil
	}
	total := 0
	for _, pt := range r.points {
		res, err := codegen.Generate(snippet.Increment(&snippet.Var{Name: "c", Width: 8, Addr: r.counters[pt.Func.Name]}),
			codegen.Options{Arch: r.st.Extensions, Mode: codegen.ModeDeadRegister,
				DeadRegs: r.lc.For(pt.Func).DeadScratchX(pt.Addr)})
		if err != nil {
			return 0, err
		}
		total += len(res.Insts)
	}
	return float64(total) / float64(len(r.points)), nil
}

// blockStarts maps the first address of every block of fns to its function.
func blockStarts(fns []*parse.Function) map[uint64]string {
	m := map[uint64]string{}
	for _, fn := range fns {
		for _, b := range fn.Blocks {
			m[b.Start] = fn.Name
		}
	}
	return m
}

// refResult is one run of the reference interpreter.
type refResult struct {
	ref    *oracle.Ref
	exit   int
	stdout []byte
	// visits counts, per function, how often the program counter reached
	// the start of one of its blocks: the value a block-entry counter must
	// hold.
	visits map[string]uint64
}

// refMaxSteps bounds a reference run; every workload program ends far
// sooner.
const refMaxSteps = 200_000_000

// refRun runs f to exit on the reference interpreter (oracle.Ref), which
// shares only instruction decoding with the emulator under test, counting
// arrivals at the block starts given.
func refRun(f *elfrv.File, starts map[uint64]string) (*refResult, error) {
	ref, err := oracle.NewRef(f)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	ref.Stdout = &out
	res := &refResult{ref: ref, visits: map[string]uint64{}}
	for steps := 0; ; steps++ {
		if steps == refMaxSteps {
			return nil, fmt.Errorf("reference run exceeded %d steps", refMaxSteps)
		}
		if fn, ok := starts[ref.PC]; ok {
			res.visits[fn]++
		}
		sr, err := ref.Step()
		if err != nil {
			return nil, err
		}
		if sr == oracle.StepExited {
			break
		}
		if sr == oracle.StepBreakpoint {
			return nil, fmt.Errorf("reference run hit a breakpoint at %#x", ref.PC)
		}
	}
	res.exit, res.stdout = ref.ExitCode, out.Bytes()
	return res, nil
}

// emuRun runs f to exit on the emulator's default (trace) tier.
func emuRun(f *elfrv.File) (*emu.CPU, []byte, error) {
	cpu, err := emu.New(f, emu.P550())
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	cpu.Stdout = &out
	if stop := cpu.Run(0); stop != emu.StopExit {
		return nil, nil, fmt.Errorf("stopped with %v: %v", stop, cpu.LastTrap())
	}
	return cpu, out.Bytes(), nil
}

// memReader is the memory of a finished run, emulated or reference.
type memReader interface {
	ReadMem(addr uint64, n int) ([]byte, error)
}

func readU64(m memReader, addr uint64) (uint64, error) {
	b, err := m.ReadMem(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// checkCounters compares every counter of r in the memory of a finished run
// of r's output with the block visits the reference run of the input made.
func checkCounters(mem memReader, r *rewritten, want map[string]uint64) error {
	for name, addr := range r.counters {
		got, err := readU64(mem, addr)
		if err != nil {
			return fmt.Errorf("counter %s: %w", name, err)
		}
		if got != want[name] {
			return fmt.Errorf("counter %s = %d, reference run entered its blocks %d times", name, got, want[name])
		}
	}
	return nil
}
