package core

import "sort"

// Component describes one toolkit of the suite and the components it uses —
// the data behind Figure 2 of the paper ("the components of Dyninst and the
// use relationships between the components; the direction of the arrows
// indicates the flow of information").
type Component struct {
	Name      string // Go package name
	Role      string // the Dyninst toolkit it reproduces
	Uses      []string
	Substrate bool // true for the simulation substrates that replace hardware/toolchain
}

// Components returns the toolkit graph. A test asserts this table matches
// the packages' actual import lists, so the reproduced figure cannot drift
// from the code.
func Components() []Component {
	comps := []Component{
		{Name: "riscv", Role: "ISA model (Capstone substitute under InstructionAPI)", Uses: nil, Substrate: true},
		{Name: "elfrv", Role: "ELF64/RISC-V object format (under SymtabAPI)", Uses: nil, Substrate: true},
		{Name: "semantics", Role: "SAIL-pipeline instruction semantics", Uses: []string{"riscv"}},
		{Name: "asm", Role: "assembler (gcc substitute)", Uses: []string{"elfrv", "riscv"}, Substrate: true},
		{Name: "obs", Role: "observability: metrics registry + trace_event spans", Uses: nil},
		{Name: "par", Role: "bounded worker pool shared by the parallel analysis and rewrite phases", Uses: nil},
		{Name: "emu", Role: "RV64GC emulator (SiFive P550 substitute)", Uses: []string{"elfrv", "obs", "riscv"}, Substrate: true},
		{Name: "workload", Role: "benchmark programs (paper Section 4.1)", Uses: []string{"asm", "elfrv"}, Substrate: true},
		{Name: "symtab", Role: "SymtabAPI", Uses: []string{"elfrv", "riscv"}},
		{Name: "instruction", Role: "InstructionAPI", Uses: []string{"riscv"}},
		{Name: "parse", Role: "ParseAPI", Uses: []string{"par", "riscv", "semantics", "symtab"}},
		{Name: "dataflow", Role: "DataflowAPI", Uses: []string{"parse", "riscv"}},
		{Name: "snippet", Role: "snippet ASTs and points", Uses: []string{"parse"}},
		{Name: "codegen", Role: "CodeGenAPI", Uses: []string{"riscv", "snippet"}},
		{Name: "patch", Role: "PatchAPI / binary rewriter", Uses: []string{"codegen", "dataflow", "elfrv", "obs", "par", "parse", "riscv", "snippet", "symtab"}},
		{Name: "proc", Role: "ProcControlAPI", Uses: []string{"elfrv", "emu", "obs", "riscv"}},
		{Name: "stackwalk", Role: "StackwalkerAPI", Uses: []string{"dataflow", "parse", "patch", "riscv"}},
		{Name: "core", Role: "mutator facade (BPatch layer)", Uses: []string{
			"codegen", "dataflow", "elfrv", "emu", "parse", "patch", "proc",
			"snippet", "stackwalk", "symtab"}},
		{Name: "oracle", Role: "differential-execution oracle (QEMU/hardware cross-check substitute)", Uses: []string{
			"asm", "codegen", "core", "elfrv", "emu", "riscv", "snippet"}, Substrate: true},
		{Name: "dbi", Role: "dynamic binary instrumentation engine (code-cache translation on a live process)", Uses: []string{
			"codegen", "dataflow", "elfrv", "emu", "obs", "parse", "patch", "proc", "riscv",
			"snippet", "symtab"}},
		{Name: "profile", Role: "instrumentation-based function profiler (performance-tool layer)", Uses: []string{
			"codegen", "core", "dbi", "elfrv", "emu", "obs", "proc", "snippet"}},
		{Name: "pipeline", Role: "concurrent analyze→instrument worker pool", Uses: []string{
			"asm", "codegen", "elfrv", "obs", "par", "parse", "patch", "snippet", "symtab", "workload"}},
		{Name: "server", Role: "instrumentation-as-a-service daemon with content-addressed artifact cache", Uses: []string{
			"asm", "codegen", "core", "elfrv", "obs", "patch", "snippet"}},
	}
	for i := range comps {
		sort.Strings(comps[i].Uses)
	}
	return comps
}
