// Package core is the top of the toolkit stack: the mutator-facing facade
// that ties analysis (symtab, parse, dataflow) to instrumentation (snippet,
// codegen, patch) and process control (proc, stackwalk), in the way
// Dyninst's BPatch layer ties its component toolkits together (paper
// Section 2, Figure 2).
//
// Typical static-rewriting use:
//
//	bin, _ := core.Open(elfBytes)
//	fn, _ := bin.FindFunction("multiply")
//	m := bin.NewMutator(codegen.ModeDeadRegister)
//	counter := m.NewVar("calls", 8)
//	m.AtFuncEntry(fn, snippet.Increment(counter))
//	out, _ := m.Rewrite()            // out is a new, instrumented ELF image
//
// Typical dynamic use:
//
//	p, _ := bin.Launch(emu.P550())
//	p.InstrumentFunction(fn, points, snippet.Increment(counter), mode)
//	p.Continue()
package core

import (
	"fmt"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
)

// Binary is one analyzed mutatee.
type Binary struct {
	File   *elfrv.File
	Symtab *symtab.Symtab
	CFG    *parse.CFG
	// Jobs bounds the worker count of the parallel analyze/instrument
	// phases (CFG parsing, patch planning and encoding). <= 0 means
	// GOMAXPROCS; 1 forces the serial path. The output of Rewrite is
	// byte-identical for every value.
	Jobs int
}

// Open parses and analyzes raw ELF bytes.
func Open(data []byte) (*Binary, error) {
	f, err := elfrv.Read(data)
	if err != nil {
		return nil, err
	}
	return FromFile(f)
}

// FromFile analyzes an in-memory file object.
func FromFile(f *elfrv.File) (*Binary, error) {
	return FromFileJobs(f, 0)
}

// FromFileJobs is FromFile with an explicit worker count.
func FromFileJobs(f *elfrv.File, jobs int) (*Binary, error) {
	st, err := symtab.FromFile(f)
	if err != nil {
		return nil, err
	}
	cfg, err := parse.Parse(st, parse.Options{Workers: jobs})
	if err != nil {
		return nil, err
	}
	return &Binary{File: f, Symtab: st, CFG: cfg, Jobs: jobs}, nil
}

// Functions lists the parsed functions.
func (b *Binary) Functions() []*parse.Function { return b.CFG.Funcs }

// FindFunction looks a function up by name.
func (b *Binary) FindFunction(name string) (*parse.Function, error) {
	fn, ok := b.CFG.FuncByName(name)
	if !ok {
		return nil, fmt.Errorf("core: no function %q", name)
	}
	return fn, nil
}

// Liveness runs (and the caller may cache) the register liveness analysis.
func (b *Binary) Liveness(fn *parse.Function) *dataflow.LivenessResult {
	return dataflow.Liveness(fn)
}

// Mutator wraps the static rewriter with point helpers.
type Mutator struct {
	*patch.Rewriter
}

// NewMutator prepares static rewriting in the given codegen mode. The
// mutator inherits the binary's Jobs setting for parallel plan/encode.
func (b *Binary) NewMutator(mode codegen.Mode) *Mutator {
	rw := patch.NewRewriter(b.Symtab, b.CFG, mode)
	rw.Jobs = b.Jobs
	return &Mutator{Rewriter: rw}
}

// At inserts sn at every point.
func (m *Mutator) At(points []snippet.Point, sn snippet.Snippet) error {
	for _, pt := range points {
		if err := m.InsertSnippet(pt, sn); err != nil {
			return err
		}
	}
	return nil
}

// AtFuncEntry inserts sn at the function entry point.
func (m *Mutator) AtFuncEntry(fn *parse.Function, sn snippet.Snippet) error {
	return m.InsertSnippet(snippet.FuncEntry(fn), sn)
}

// AtFuncExits inserts sn at every exit point.
func (m *Mutator) AtFuncExits(fn *parse.Function, sn snippet.Snippet) error {
	return m.At(snippet.FuncExits(fn), sn)
}

// AtBlockEntries inserts sn at the start of every basic block.
func (m *Mutator) AtBlockEntries(fn *parse.Function, sn snippet.Snippet) error {
	return m.At(snippet.BlockEntries(fn), sn)
}

// AtCallSites inserts sn before every call instruction in the function.
func (m *Mutator) AtCallSites(fn *parse.Function, sn snippet.Snippet) error {
	return m.At(snippet.CallSites(fn), sn)
}

// AtLoopBegins inserts sn at every loop head (once per iteration).
func (m *Mutator) AtLoopBegins(fn *parse.Function, sn snippet.Snippet) error {
	return m.At(snippet.LoopBegins(fn), sn)
}

// AtLoopBackEdges inserts sn on every loop back edge of the function.
func (m *Mutator) AtLoopBackEdges(fn *parse.Function, sn snippet.Snippet) error {
	for _, pt := range snippet.LoopBackEdges(fn) {
		if err := m.InsertEdgeSnippet(pt, sn); err != nil {
			return err
		}
	}
	return nil
}
