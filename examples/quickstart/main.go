// Quickstart: the smallest end-to-end use of the toolkit suite.
//
// It builds a RISC-V binary in memory (a recursive Fibonacci), analyzes it
// (symbols, extensions, CFG), inserts a function-entry counter with the
// snippet/point abstractions, rewrites the binary statically, and runs both
// versions on the emulator, printing the measured call count.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/emu"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Build the mutatee (normally you would load an ELF from disk).
	file, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Analyze: symbol table, extensions, control-flow graph.
	bin, err := core.FromFile(file)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary: entry %#x, extensions %v (from %v)\n",
		bin.Symtab.Entry, bin.Symtab.Extensions, bin.Symtab.ExtSource)
	for _, fn := range bin.Functions() {
		fmt.Printf("  function %-8s at %#x: %d blocks, %d loops\n",
			fn.Name, fn.Entry, len(fn.Blocks), len(fn.Loops()))
	}

	// 3. Instrument: count entries of fib.
	fib, err := bin.FindFunction("fib")
	if err != nil {
		log.Fatal(err)
	}
	mut := bin.NewMutator(codegen.ModeDeadRegister)
	calls := mut.NewVar("fib_calls", 8)
	if err := mut.AtFuncEntry(fib, snippet.Increment(calls)); err != nil {
		log.Fatal(err)
	}
	instrumented, err := mut.Rewrite()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run base and instrumented versions; compare.
	base, err := emu.New(file, emu.P550())
	if err != nil {
		log.Fatal(err)
	}
	base.Run(0)

	inst, err := emu.New(instrumented, emu.P550())
	if err != nil {
		log.Fatal(err)
	}
	inst.Run(0)

	count, err := inst.Mem.Read64(calls.Addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbase run:         fib(12) = %d in %d instructions\n", base.ExitCode, base.Instret)
	fmt.Printf("instrumented run: fib(12) = %d in %d instructions\n", inst.ExitCode, inst.Instret)
	fmt.Printf("fib was called %d times (counter written by inserted snippets)\n", count)
	if base.ExitCode != inst.ExitCode {
		log.Fatal("instrumentation changed program behaviour!")
	}
	fmt.Printf("overhead: %.2f%% more instructions\n",
		100*(float64(inst.Instret)/float64(base.Instret)-1))
}
