// Command rvdyn is the mutator CLI over the toolkit suite — the analog of
// the tools one builds with Dyninst. It analyzes RISC-V binaries and
// instruments them statically or dynamically.
//
// Subcommands:
//
//	rvdyn symbols prog.elf                   symbol table and extension info
//	rvdyn disasm [-func f] prog.elf          disassembly
//	rvdyn cfg [-func f] prog.elf             control-flow graph with the
//	                                         jal/jalr classifier verdicts
//	rvdyn liveness -func f prog.elf          per-block dead registers
//	rvdyn slice -func f -addr A -reg R [-forward] prog.elf
//	                                         backward/forward slice
//	rvdyn rewrite -func f [-points entry|exits|blocks] [-mode dead|spill]
//	      [-o out.elf] prog.elf              static instrumentation (counter)
//	rvdyn run [-mode static|spawn|attach] -func f prog.elf
//	                                         instrument + execute, print count
//	rvdyn oracle [-mode sweep|replay|equiv] [flags] [prog.elf]
//	                                         differential-execution oracle
//	rvdyn batch [-points p] [-mode m] [-synthetic N] [-o dir]
//	                                         instrument every workload program
//	                                         concurrently, print phase stats
//	rvdyn profile [-func f1,f2] [-mode m] {prog.elf|workload-name}
//	                                         instrument, run, and print a
//	                                         per-function cycle profile
//	rvdyn dbirun [-func f1,f2] [-mode m] [-novirt] {prog.elf|workload-name}
//	                                         run under the dynamic binary
//	                                         instrumentation engine (code-cache
//	                                         translation, no rewrite) and print
//	                                         call counts plus engine counters
//	rvdyn serve [-addr host:port] [-cache-mb N] [-max-upload-mb N]
//	                                         long-running instrumentation
//	                                         server with a content-addressed
//	                                         analysis cache (rvdynd)
//	rvdyn components                         the Figure 2 component graph
//
// The global -jobs N flag (before the subcommand) bounds the worker pool of
// the parallel analyze/instrument phases; output is byte-identical for every
// value. Default is GOMAXPROCS.
//
// Observability (global flags, before the subcommand): -metrics dumps the
// counter registry to stderr on exit; -trace-out=FILE writes per-phase spans
// as Chrome trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/instruction"
	"rvdyn/internal/obs"
	"rvdyn/internal/oracle"
	"rvdyn/internal/parse"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/proc"
	"rvdyn/internal/profile"
	"rvdyn/internal/profile/sample"
	"rvdyn/internal/riscv"
	"rvdyn/internal/server"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

var (
	jobsFlag     = flag.Int("jobs", 0, "workers for parallel analyze/instrument phases (default GOMAXPROCS)")
	metricsFlag  = flag.Bool("metrics", false, "dump the metrics registry to stderr on exit")
	traceOutFlag = flag.String("trace-out", "", "write span trace as Chrome trace_event JSON to `FILE`")
	notraceFlag  = flag.Bool("notrace", false, "disable trace compilation of hot superblock chains in every guest run (A/B overhead comparisons)")
)

// obsReg and obsTr are the process-wide sinks; both stay nil (disabling
// collection everywhere, with no-op handles) unless the flags ask for them.
var (
	obsReg *obs.Registry
	obsTr  *obs.Tracer
)

func obsSetup() {
	if *metricsFlag {
		obsReg = obs.NewRegistry()
	}
	if *traceOutFlag != "" {
		obsTr = obs.NewTracer()
	}
}

func obsFinish() {
	if obsReg != nil {
		fmt.Fprint(os.Stderr, obsReg.String())
	}
	if obsTr != nil {
		f, err := os.Create(*traceOutFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := obsTr.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rvdyn: wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			len(obsTr.Events()), *traceOutFlag)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rvdyn: ")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	obsSetup()
	defer obsFinish()
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "symbols":
		cmdSymbols(args)
	case "disasm":
		cmdDisasm(args)
	case "cfg":
		cmdCFG(args)
	case "liveness":
		cmdLiveness(args)
	case "slice":
		cmdSlice(args)
	case "rewrite":
		cmdRewrite(args)
	case "run":
		cmdRun(args)
	case "oracle":
		cmdOracle(args)
	case "batch":
		cmdBatch(args)
	case "profile":
		cmdProfile(args)
	case "dbirun":
		cmdDBIRun(args)
	case "serve":
		cmdServe(args)
	case "components":
		cmdComponents()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rvdyn [-jobs N] [-metrics] [-trace-out FILE] {symbols|disasm|cfg|liveness|slice|rewrite|run|oracle|batch|profile|dbirun|serve|components} [flags] prog.elf")
	os.Exit(2)
}

func openArg(fs *flag.FlagSet) *core.Binary {
	if fs.NArg() != 1 {
		log.Fatal("need exactly one ELF file")
	}
	b, err := core.OpenPathJobs(fs.Arg(0), *jobsFlag)
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func cmdSymbols(args []string) {
	fs := flag.NewFlagSet("symbols", flag.ExitOnError)
	fs.Parse(args)
	b := openArg(fs)
	st := b.Symtab
	fmt.Printf("entry:      %#x\n", st.Entry)
	fmt.Printf("extensions: %v (from %v", st.Extensions, st.ExtSource)
	if st.Arch != "" {
		fmt.Printf(", arch %q", st.Arch)
	}
	fmt.Println(")")
	fmt.Println("\nregions:")
	for _, r := range st.Regions {
		perm := "r"
		if r.Write {
			perm += "w"
		}
		if r.Exec {
			perm += "x"
		}
		fmt.Printf("  %-18s %#10x  %8d bytes  %s\n", r.Name, r.Addr, r.Size, perm)
	}
	fmt.Println("\nfunctions:")
	for _, f := range st.Functions {
		bind := "local "
		if f.Global {
			bind = "global"
		}
		fmt.Printf("  %#10x  %6d bytes  %s  %s\n", f.Addr, f.Size, bind, f.Name)
	}
}

func cmdDisasm(args []string) {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	fname := fs.String("func", "", "restrict to one function")
	access := fs.Bool("access", false, "annotate operand read/write access")
	fs.Parse(args)
	b := openArg(fs)
	for _, fn := range b.Functions() {
		if *fname != "" && fn.Name != *fname {
			continue
		}
		fmt.Printf("\n%s: (%d blocks)\n", name(fn), len(fn.Blocks))
		for _, blk := range fn.Blocks {
			for _, in := range blk.Insts {
				c := " "
				if in.Compressed {
					c = "c"
				}
				fmt.Printf("  %#10x %s  %-32v", in.Addr, c, in)
				if *access {
					// The InstructionAPI operand view: per-operand
					// read/write flags (the metadata the paper's authors
					// upstreamed into Capstone v6).
					obj := instruction.Instruction{Inst: in}
					for _, op := range obj.Operands() {
						tag := ""
						if op.Read {
							tag += "r"
						}
						if op.Written {
							tag += "w"
						}
						fmt.Printf("  %s:%s", op, tag)
					}
				}
				fmt.Println()
			}
		}
	}
}

func name(fn *parse.Function) string {
	if fn.Name != "" {
		return fn.Name
	}
	return fmt.Sprintf("func_%x", fn.Entry)
}

func cmdCFG(args []string) {
	fs := flag.NewFlagSet("cfg", flag.ExitOnError)
	fname := fs.String("func", "", "restrict to one function")
	fs.Parse(args)
	b := openArg(fs)
	for _, fn := range b.Functions() {
		if *fname != "" && fn.Name != *fname {
			continue
		}
		spec := ""
		if fn.Speculative {
			spec = " (speculative, from gap parsing)"
		}
		fmt.Printf("\nfunction %s at %#x: %d blocks, %d loops, returns=%v%s\n",
			name(fn), fn.Entry, len(fn.Blocks), len(fn.Loops), fn.Returns, spec)
		for _, blk := range fn.Blocks {
			fmt.Printf("  block [%#x,%#x)", blk.Start, blk.End)
			if blk.Purpose != parse.PurposeNone {
				fmt.Printf("  %v", blk.Purpose)
			}
			fmt.Println()
			for _, e := range blk.Out {
				tgt := "?"
				if e.To != nil {
					tgt = fmt.Sprintf("%#x", e.To.Start)
				} else if e.Target != 0 {
					tgt = fmt.Sprintf("%#x", e.Target)
				}
				fmt.Printf("    -> %s (%v)\n", tgt, e.Kind)
			}
			if blk.Purpose == parse.PurposeJumpTable {
				fmt.Printf("    table at %#x: %d entries, stride %d\n",
					blk.TableBase, blk.TableCount, blk.TableStride)
			}
		}
		for _, l := range fn.Loops {
			fmt.Printf("  loop head %#x, %d blocks, %d back edges\n",
				l.Head.Start, len(l.Blocks), len(l.BackEdges))
		}
	}
	s := b.CFG.Stats
	fmt.Printf("\ntotals: %d functions (%d from gaps), %d blocks, %d instructions\n",
		s.Functions, s.GapFuncs, s.Blocks, s.Instructions)
	fmt.Printf("classifier: %d calls, %d returns, %d jumps, %d tail calls, %d jump tables, %d unresolved\n",
		s.Calls, s.Returns, s.Jumps, s.TailCalls, s.JumpTables, s.Unresolved)
}

func cmdLiveness(args []string) {
	fs := flag.NewFlagSet("liveness", flag.ExitOnError)
	fname := fs.String("func", "", "function to analyze (required)")
	fs.Parse(args)
	b := openArg(fs)
	fn, err := b.FindFunction(*fname)
	if err != nil {
		log.Fatal(err)
	}
	lv := dataflow.Liveness(fn)
	fmt.Printf("dead registers by block of %s (instrumentation scratch candidates):\n", *fname)
	for _, blk := range fn.Blocks {
		dead := lv.DeadScratchX(blk.Start)
		fmt.Printf("  %#10x: %v\n", blk.Start, dead)
	}
}

func cmdSlice(args []string) {
	fs := flag.NewFlagSet("slice", flag.ExitOnError)
	fname := fs.String("func", "", "function to analyze (required)")
	addrStr := fs.String("addr", "", "criterion instruction address (hex, required)")
	regName := fs.String("reg", "", "criterion register (required for backward)")
	forward := fs.Bool("forward", false, "forward slice instead of backward")
	fs.Parse(args)
	b := openArg(fs)
	fn, err := b.FindFunction(*fname)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(*addrStr, "0x"), 16, 64)
	if err != nil {
		log.Fatalf("bad -addr %q: %v", *addrStr, err)
	}
	if *forward {
		nodes := dataflow.ForwardSlice(fn, addr)
		fmt.Printf("forward slice from %#x (%d instructions affected):\n", addr, len(nodes))
		for _, n := range nodes {
			fmt.Printf("  %#10x  %v\n", n.Inst().Addr, n.Inst())
		}
		return
	}
	reg, ok := riscv.LookupReg(*regName)
	if !ok {
		log.Fatalf("bad register %q", *regName)
	}
	nodes := dataflow.BackwardSlice(fn, addr, reg)
	fmt.Printf("backward slice of %s at %#x (%d producing instructions):\n", reg, addr, len(nodes))
	for _, n := range nodes {
		fmt.Printf("  %#10x  %v\n", n.Inst().Addr, n.Inst())
	}
}

func cmdRewrite(args []string) {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	fname := fs.String("func", "", "function to instrument (required)")
	points := fs.String("points", "entry", "points: entry, exits, or blocks")
	mode := fs.String("mode", "dead", "register allocation: dead or spill")
	out := fs.String("o", "instrumented.elf", "output path")
	fs.Parse(args)
	b := openArg(fs)
	fn, err := b.FindFunction(*fname)
	if err != nil {
		log.Fatal(err)
	}
	m := b.NewMutator(parseMode(*mode))
	counter := m.NewVar("rvdyn_counter", 8)
	switch *points {
	case "entry":
		err = m.AtFuncEntry(fn, snippet.Increment(counter))
	case "exits":
		err = m.AtFuncExits(fn, snippet.Increment(counter))
	case "blocks":
		err = m.AtBlockEntries(fn, snippet.Increment(counter))
	default:
		log.Fatalf("unknown points %q", *points)
	}
	if err != nil {
		log.Fatal(err)
	}
	outFile, err := m.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	raw, err := outFile.Write()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, raw, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, p := range m.Patches {
		fmt.Printf("patched %s entry %#x -> %#x via %v\n", p.Func, p.From, p.To, p.Kind)
	}
	fmt.Printf("wrote %s (counter variable %q at %#x)\n", *out, counter.Name, counter.Addr)
}

func parseMode(s string) codegen.Mode {
	switch s {
	case "dead":
		return codegen.ModeDeadRegister
	case "spill":
		return codegen.ModeSpillAlways
	}
	log.Fatalf("unknown mode %q", s)
	return 0
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fname := fs.String("func", "", "function whose entries to count (required)")
	mode := fs.String("mode", "static", "instrumentation variant: static, spawn, or attach (Figure 1)")
	fs.Parse(args)
	b := openArg(fs)
	fn, err := b.FindFunction(*fname)
	if err != nil {
		log.Fatal(err)
	}
	switch *mode {
	case "static":
		m := b.NewMutator(codegen.ModeDeadRegister)
		counter := m.NewVar("count", 8)
		if err := m.AtFuncEntry(fn, snippet.Increment(counter)); err != nil {
			log.Fatal(err)
		}
		outFile, err := m.Rewrite()
		if err != nil {
			log.Fatal(err)
		}
		cpu, err := emu.New(outFile, emu.P550())
		if err != nil {
			log.Fatal(err)
		}
		cpu.NoTrace = *notraceFlag
		cpu.Stdout = os.Stdout
		if obsReg != nil {
			cpu.Obs = emu.NewMetrics(obsReg)
		}
		if r := cpu.Run(0); r != emu.StopExit {
			log.Fatalf("stopped: %v (%v)", r, cpu.LastTrap())
		}
		v, _ := cpu.Mem.Read64(counter.Addr)
		fmt.Printf("static rewrite: %s entered %d times; exit code %d; %.6f virtual s\n",
			*fname, v, cpu.ExitCode, float64(cpu.VirtualNanos())/1e9)
	case "spawn", "attach":
		var p *core.Process
		if *mode == "spawn" {
			p, err = b.Launch(emu.P550())
			if err != nil {
				log.Fatal(err)
			}
		} else {
			cpu, err := emu.New(b.File, emu.P550())
			if err != nil {
				log.Fatal(err)
			}
			cpu.Run(500)
			p = b.Attach(cpu)
		}
		p.CPU().NoTrace = *notraceFlag
		p.CPU().Stdout = os.Stdout
		if obsReg != nil {
			p.CPU().Obs = emu.NewMetrics(obsReg)
			p.Process.Obs = proc.NewMetrics(obsReg)
		}
		counter := p.NewVar("count", 8)
		kind, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
			snippet.Increment(counter), codegen.ModeDeadRegister)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := p.Continue()
		if err != nil {
			log.Fatal(err)
		}
		if ev.Kind != proc.EventExit {
			log.Fatalf("stopped: %+v", ev)
		}
		v, _ := p.ReadVar(counter)
		fmt.Printf("dynamic (%s, entry patch %v): %s entered %d times; exit code %d\n",
			*mode, kind, *fname, v, ev.ExitCode)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

func cmdOracle(args []string) {
	fs := flag.NewFlagSet("oracle", flag.ExitOnError)
	mode := fs.String("mode", "sweep", "sweep, replay, or equiv")
	seed := fs.Int64("seed", 1, "generator seed (replay)")
	seeds := fs.Int("seeds", 50, "number of seeds to run (sweep)")
	length := fs.Int("len", 300, "generated program body length")
	dump := fs.Bool("dump", false, "print the generated assembly before running (replay)")
	funcs := fs.String("func", "", "comma-separated functions to instrument (equiv, required)")
	cg := fs.String("cgmode", "dead", "register allocation for equiv: dead or spill")
	fs.Parse(args)
	switch *mode {
	case "sweep":
		var total uint64
		exits := 0
		for s := int64(1); s <= int64(*seeds); s++ {
			res, div, err := oracle.LockstepSeed(s, *length)
			if err != nil {
				log.Fatalf("seed %d: %v", s, err)
			}
			if div != nil {
				fmt.Println(div.Error())
				os.Exit(1)
			}
			total += res.Steps
			if res.Stop == "exit" {
				exits++
			}
		}
		fmt.Printf("sweep: %d seeds, %d lockstep instructions, %d clean exits, 0 divergences\n",
			*seeds, total, exits)
	case "replay":
		if *dump {
			fmt.Print(oracle.GenerateProgram(*seed, *length))
		}
		res, div, err := oracle.LockstepSeed(*seed, *length)
		if err != nil {
			log.Fatal(err)
		}
		if div != nil {
			fmt.Println(div.Error())
			os.Exit(1)
		}
		fmt.Printf("seed %d: %d lockstep instructions, stop=%s, exit code %d, 0 divergences\n",
			*seed, res.Steps, res.Stop, res.ExitCode)
	case "equiv":
		if *funcs == "" {
			log.Fatal("equiv mode needs -func f1,f2,...")
		}
		b := openArg(fs)
		rep, err := oracle.CheckEquivalence(b.File, strings.Split(*funcs, ","), parseMode(*cg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("equivalent: %d points across %v; exit code %d; %d original vs %d instrumented instructions\n",
			rep.Points, rep.Funcs, rep.ExitCode, rep.OrigSteps, rep.InstrSteps)
	default:
		log.Fatalf("unknown oracle mode %q", *mode)
	}
}

func cmdBatch(args []string) {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	points := fs.String("points", "entry", "points per function: entry, exits, or blocks")
	mode := fs.String("mode", "dead", "register allocation: dead or spill")
	synthetic := fs.Int("synthetic", 0, "append N synthetic random programs to the batch")
	outDir := fs.String("o", "", "directory to write instrumented ELFs into (optional)")
	verify := fs.Bool("verify", true, "execute each instrumented binary and check exit codes")
	fs.Parse(args)

	batch := pipeline.WorkloadJobs()
	if *synthetic > 0 {
		batch = append(batch, pipeline.SyntheticJobs(*synthetic, 40, 4)...)
	}
	opts := pipeline.Options{
		Jobs: *jobsFlag, Mode: parseMode(*mode), Points: *points,
		Metrics: obsReg, Trace: obsTr, TraceTID: 1,
	}

	start := time.Now()
	results, errs, stats := pipeline.BatchAll(batch, opts)
	wall := time.Since(start)

	// Verification failures join the instrumentation failures so the final
	// summary names every bad job and the exit status reflects all of them.
	for i, res := range results {
		if errs[i] != nil {
			fmt.Printf("%-14s FAILED: %v\n", batch[i].Name, errs[i])
			continue
		}
		fmt.Printf("%-14s %6d bytes  %d patches", res.Name, len(res.ELF), len(res.Patches))
		if *verify {
			code, err := verifyResult(res)
			if err != nil {
				errs[i] = err
				fmt.Printf("  VERIFY FAILED: %v\n", err)
				continue
			}
			fmt.Printf("  exit %d ok", code)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := *outDir + "/" + res.Name + ".elf"
			if err := os.WriteFile(path, res.ELF, 0o755); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  -> %s", path)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Print(stats)
	fmt.Printf("wall time: %.3f ms with %d workers\n", float64(wall)/1e6, opts.Workers())
	if summary := pipeline.ErrorSummary(batch, errs); summary != "" {
		fmt.Fprintf(os.Stderr, "rvdyn: batch: %s", summary)
		obsFinish()
		os.Exit(1)
	}
}

// verifyResult executes one instrumented binary in the emulator and checks
// its exit code.
func verifyResult(res *pipeline.Result) (int, error) {
	cpu, err := emu.New(res.File, emu.P550())
	if err != nil {
		return 0, err
	}
	if r := cpu.Run(0); r != emu.StopExit {
		return 0, fmt.Errorf("stopped %v (%v)", r, cpu.LastTrap())
	}
	if res.CheckExit && cpu.ExitCode != res.WantExit {
		return cpu.ExitCode, fmt.Errorf("exit code %d, want %d", cpu.ExitCode, res.WantExit)
	}
	return cpu.ExitCode, nil
}

// cmdServe runs the rvdynd instrumentation daemon: an HTTP server sharing
// one worker pool and one content-addressed artifact cache across all
// requests. See internal/server for the API surface.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address")
	cacheMB := fs.Int("cache-mb", 256, "artifact cache capacity in MiB")
	maxUploadMB := fs.Int64("max-upload-mb", 64, "per-request upload cap in MiB")
	fs.Parse(args)
	if fs.NArg() != 0 {
		log.Fatal("serve takes no positional arguments")
	}
	// The metrics endpoint always has a live registry; the global -metrics
	// flag additionally dumps it to stderr on exit.
	reg := obsReg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	svc := server.NewService(server.Options{
		Jobs:       *jobsFlag,
		CacheBytes: uint64(*cacheMB) << 20,
		Metrics:    reg,
	})
	h := server.NewHandler(svc, server.HandlerOptions{MaxUploadBytes: *maxUploadMB << 20})
	log.Printf("rvdynd listening on %s (cache %d MiB, %s)", *addr, *cacheMB, server.ToolchainVersion)
	if err := http.ListenAndServe(*addr, h); err != nil {
		log.Fatal(err)
	}
}

// cmdProfile instruments every requested function with call counters and
// entry/exit probes, runs the binary in the emulator, and prints a
// per-function profile whose cycle column sums exactly to the run's retired
// cycles. The argument is an ELF path or a workload program name (e.g.
// "matmul"), in which case the workload's instrumentable functions are
// profiled by default.
// loadProgArg resolves an argument that is either an ELF path or a workload
// program name into a parsed file plus the workload's default function list.
func loadProgArg(arg string) (*elfrv.File, []string) {
	if data, err := os.ReadFile(arg); err == nil {
		file, err := elfrv.Read(data)
		if err != nil {
			log.Fatal(err)
		}
		return file, nil
	}
	for _, p := range workload.Programs() {
		if p.Name != arg {
			continue
		}
		f, err := asm.Assemble(p.Source, asm.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return f, p.Funcs
	}
	log.Fatalf("%q is neither a readable file nor a workload program", arg)
	return nil, nil
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	funcs := fs.String("func", "", "comma-separated functions to profile (default: workload metadata, or every named function)")
	mode := fs.String("mode", "dead", "register allocation: dead or spill")
	maxInst := fs.Uint64("max", 0, "instruction budget, 0 = unlimited")
	doSample := fs.Bool("sample", false, "sample on the virtual clock instead of instrumenting (deterministic sampling profiler)")
	period := fs.Uint64("period", 4096, "sampling period in virtual cycles (with -sample)")
	engine := fs.String("engine", "fast", "sampling engine: fast, slow, or dbi (with -sample)")
	pprofOut := fs.String("pprof", "", "write a gzipped pprof profile.proto to `FILE` (with -sample)")
	foldedOut := fs.String("folded", "", "write folded stacks for flamegraph.pl/speedscope to `FILE` (with -sample)")
	topN := fs.Int("top", 10, "rows in the top-functions table (with -sample; 0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("profile needs one ELF file or workload program name (e.g. matmul)")
	}
	file, flist := loadProgArg(fs.Arg(0))
	if *funcs != "" {
		flist = strings.Split(*funcs, ",")
	}

	if *doSample {
		var eng sample.Engine
		switch *engine {
		case "fast":
			eng = sample.EngineFast
		case "slow":
			eng = sample.EngineSlow
		case "dbi":
			eng = sample.EngineDBI
		default:
			log.Fatalf("unknown sampling engine %q (want fast, slow, or dbi)", *engine)
		}
		runSampled(file, sample.Options{
			Period: *period, Engine: eng, MaxInst: *maxInst,
			Obs: obsReg, Name: fs.Arg(0), NoTrace: *notraceFlag,
		}, *pprofOut, *foldedOut, *topN)
		return
	}

	rep, err := profile.Run(file, profile.Options{
		Funcs: flist, Mode: parseMode(*mode), MaxInst: *maxInst,
		Obs: obsReg, Trace: obsTr, TraceTID: 1, NoTrace: *notraceFlag,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
	fmt.Printf("exit code %d; %d instructions retired\n", rep.ExitCode, rep.TotalInsts)
}

// runSampled executes one sampled run and emits every requested export:
// the top-N table on stdout, optionally a gzipped pprof profile (which is
// immediately re-read through the in-tree decoder so a malformed encoding
// fails loudly rather than downstream in pprof) and a folded-stack file.
func runSampled(file *elfrv.File, opts sample.Options, pprofPath, foldedPath string, topN int) {
	prof, err := sample.Run(file, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled %d stacks over %d cycles (engine %v, period %d)\n",
		len(prof.Samples), prof.TotalCycles, opts.Engine, prof.Period)
	if err := prof.WriteTop(os.Stdout, topN); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exit code %d; %d instructions retired; virtual %.6fs\n",
		prof.ExitCode, prof.TotalInsts, float64(prof.DurationNanos)/1e9)
	if pprofPath != "" {
		var buf bytes.Buffer
		if err := prof.WritePprof(&buf); err != nil {
			log.Fatal(err)
		}
		dec, err := sample.ParsePprof(bytes.NewReader(buf.Bytes()))
		if err != nil {
			log.Fatalf("pprof self-check failed: %v", err)
		}
		if got, want := dec.TotalSamples(), int64(len(prof.Samples)); got != want {
			log.Fatalf("pprof self-check: decoded %d samples, profile has %d", got, want)
		}
		if err := os.WriteFile(pprofPath, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d bytes, %d sample records, %d locations, %d functions (round-trip verified)\n",
			pprofPath, buf.Len(), len(dec.Samples), len(dec.Locations), len(dec.Functions))
	}
	if foldedPath != "" {
		f, err := os.Create(foldedPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.WriteFolded(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d folded stacks (one line per sample)\n", foldedPath, len(prof.Samples))
	}
}

// cmdDBIRun runs a binary under the dynamic binary instrumentation engine:
// no rewrite on disk, blocks translate into a code cache at first execution
// with call-count probes woven in, and the engine's counters quantify the
// dynamic-mode machinery (translations, chain patches, invalidations).
func cmdDBIRun(args []string) {
	fs := flag.NewFlagSet("dbirun", flag.ExitOnError)
	funcs := fs.String("func", "", "comma-separated functions to probe (default: workload metadata, or every named function)")
	mode := fs.String("mode", "dead", "register allocation: dead or spill")
	maxInst := fs.Uint64("max", 0, "instruction budget, 0 = unlimited")
	noVirt := fs.Bool("novirt", false, "disable counter virtualization (report raw translation-inflated counters)")
	samplePeriod := fs.Uint64("sample-period", 0, "sample the run on the (compensated) virtual clock every N cycles instead of probing")
	pprofOut := fs.String("pprof", "", "write a gzipped pprof profile.proto to `FILE` (with -sample-period)")
	foldedOut := fs.String("folded", "", "write folded stacks to `FILE` (with -sample-period)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("dbirun needs one ELF file or workload program name (e.g. matmul)")
	}
	file, flist := loadProgArg(fs.Arg(0))
	if *funcs != "" {
		flist = strings.Split(*funcs, ",")
	}

	if *samplePeriod != 0 {
		runSampled(file, sample.Options{
			Period: *samplePeriod, Engine: sample.EngineDBI, MaxInst: *maxInst,
			Obs: obsReg, NoCounterVirt: *noVirt, Name: fs.Arg(0), NoTrace: *notraceFlag,
		}, *pprofOut, *foldedOut, 10)
		return
	}

	reg := obsReg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rep, err := profile.RunDBI(file, profile.Options{
		Funcs: flist, Mode: parseMode(*mode), MaxInst: *maxInst, Obs: reg,
		NoCounterVirt: *noVirt, NoTrace: *notraceFlag,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
	fmt.Printf("exit code %d; %d instructions retired\n", rep.ExitCode, rep.TotalInsts)
	for _, name := range []string{
		"emu.dbi.translations", "emu.dbi.chain.patches", "emu.dbi.chain.hits",
		"emu.dbi.invalidations", "emu.dbi.indirect_exits",
		"emu.dbi.ibl.hits", "emu.dbi.ibl.misses", "emu.dbi.probe_removals",
		"emu.dbi.flushes", "emu.dbi.probes", "emu.dbi.deopts",
	} {
		fmt.Printf("%-24s %d\n", name, reg.Counter(name).Load())
	}
}

func cmdComponents() {
	fmt.Println("Component graph (paper Figure 2); arrows show information flow (uses):")
	comps := core.Components()
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	for _, c := range comps {
		tag := ""
		if c.Substrate {
			tag = "  [substrate]"
		}
		fmt.Printf("  %-12s %s%s\n", c.Name, c.Role, tag)
		for _, u := range c.Uses {
			fmt.Printf("               -> %s\n", u)
		}
	}
}
