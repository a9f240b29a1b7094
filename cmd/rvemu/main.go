// Command rvemu executes a RISC-V ELF binary on the RV64GC emulator — the
// hardware substrate this reproduction uses in place of the paper's SiFive
// P550 board (see DESIGN.md). It reports retired instructions, model
// cycles, and virtual time.
//
// Usage:
//
//	rvemu [-model p550|x86] [-max N] [-trace] [-histo] [-slow] [-stats] prog.elf
//
// -stats prints the emulator's observability counters on exit: instructions
// retired, superblock-cache hits/builds/invalidations, chain hits/severs,
// trace counters, macro-op fusion counts per fusion row, per-tier retired
// instructions and cycles, per-number syscall counts, and the wall-clock
// emulation rate in MIPS. See README.md ("Observability & profiling") for
// how to read them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/profile/sample"
	"rvdyn/internal/riscv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rvemu: ")
	modelName := flag.String("model", "p550", "cost model: p550 or x86")
	maxInst := flag.Uint64("max", 0, "instruction budget (0 = unlimited)")
	trace := flag.Bool("trace", false, "print every executed instruction")
	histo := flag.Bool("histo", false, "print a per-mnemonic execution histogram (top 20)")
	slow := flag.Bool("slow", false, "force per-instruction dispatch (disable the fused block engine)")
	notrace := flag.Bool("notrace", false, "disable trace compilation of hot superblock chains (for A/B overhead runs)")
	stats := flag.Bool("stats", false, "print emulator counters and wall-clock MIPS on exit")
	pprofOut := flag.String("pprof", "", "sample the run on the virtual clock and write a gzipped pprof profile to `FILE`")
	period := flag.Uint64("period", 4096, "sampling period in virtual cycles (with -pprof)")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("need exactly one ELF file")
	}
	dispatch := emu.DispatchTrace
	if *notrace {
		dispatch = emu.DispatchBlock
	}
	if *slow {
		dispatch = emu.DispatchSlow
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	f, err := elfrv.Read(data)
	if err != nil {
		log.Fatal(err)
	}
	var model *emu.CostModel
	switch *modelName {
	case "p550":
		model = emu.P550()
	case "x86":
		model = emu.X86Comparator()
	default:
		log.Fatalf("unknown model %q", *modelName)
	}
	if *pprofOut != "" {
		// The sampled path drives the run through the profiler harness
		// (stack walking needs the process layer), so the per-instruction
		// hooks don't compose with it.
		if *trace || *histo {
			log.Fatal("-pprof is incompatible with -trace and -histo")
		}
		runSampled(f, model, *pprofOut, *period, dispatch, *stats, *maxInst)
		return
	}
	cpu, err := emu.New(f, model)
	if err != nil {
		log.Fatal(err)
	}
	cpu.Stdout = os.Stdout
	cpu.Stderr = os.Stderr
	cpu.Dispatch = dispatch
	if *trace {
		cpu.Trace = func(c *emu.CPU, inst riscv.Inst) {
			fmt.Fprintf(os.Stderr, "%#010x: %v\n", c.PC, inst)
		}
	}
	var counts map[riscv.Mnemonic]uint64
	if *histo {
		counts = make(map[riscv.Mnemonic]uint64)
		prev := cpu.Trace
		cpu.Trace = func(c *emu.CPU, inst riscv.Inst) {
			counts[inst.Mn]++
			if prev != nil {
				prev(c, inst)
			}
		}
	}
	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
		cpu.Obs = emu.NewMetrics(reg)
	}
	wallStart := time.Now()
	reason := cpu.Run(*maxInst)
	wall := time.Since(wallStart)
	if *stats {
		fmt.Fprint(os.Stderr, reg.String())
		mips := 0.0
		if wall > 0 {
			mips = float64(cpu.Instret) / wall.Seconds() / 1e6
		}
		fmt.Fprintf(os.Stderr, "%-44s %.1f (%.3f ms wall)\n", "emu.wallclock_mips", mips, float64(wall)/1e6)
	}
	if *histo {
		type row struct {
			mn riscv.Mnemonic
			n  uint64
		}
		var rows []row
		for mn, n := range counts {
			rows = append(rows, row{mn, n})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
		fmt.Fprintf(os.Stderr, "instruction histogram (top 20 of %d mnemonics):\n", len(rows))
		for i, r := range rows {
			if i == 20 {
				break
			}
			fmt.Fprintf(os.Stderr, "  %-12s %10d  %5.1f%%\n", r.mn, r.n, 100*float64(r.n)/float64(cpu.Instret))
		}
	}
	fmt.Fprintf(os.Stderr, "stop: %v", reason)
	if reason == emu.StopExit {
		fmt.Fprintf(os.Stderr, " (code %d)", cpu.ExitCode)
	}
	if reason == emu.StopTrap {
		fmt.Fprintf(os.Stderr, " (%v)", cpu.LastTrap())
	}
	fmt.Fprintf(os.Stderr, "\ninstret: %d\ncycles:  %d (%s @ %d MHz)\nvirtual: %.6fs\n",
		cpu.Instret, cpu.Cycles, model.Name, model.MHz, float64(cpu.VirtualNanos())/1e9)
	if reason == emu.StopExit {
		os.Exit(cpu.ExitCode & 0x7f)
	}
	os.Exit(0)
}

// runSampled runs the binary under the virtual-clock sampling profiler on
// the chosen dispatch engine and writes the gzipped pprof profile.
func runSampled(f *elfrv.File, model *emu.CostModel, out string, period uint64, dispatch emu.Dispatch, stats bool, maxInst uint64) {
	var reg *obs.Registry
	if stats {
		reg = obs.NewRegistry()
	}
	prof, err := sample.Run(f, sample.Options{
		Model: model, Period: period, MaxInst: maxInst, Obs: reg,
		Name: flag.Arg(0), Dispatch: dispatch,
	})
	if err != nil {
		log.Fatal(err)
	}
	of, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := prof.WritePprof(of); err != nil {
		log.Fatal(err)
	}
	if err := of.Close(); err != nil {
		log.Fatal(err)
	}
	if stats {
		fmt.Fprint(os.Stderr, reg.String())
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d samples at period %d\n", out, len(prof.Samples), period)
	fmt.Fprintf(os.Stderr, "stop: exit (code %d)\ninstret: %d\ncycles:  %d (%s @ %d MHz)\nvirtual: %.6fs\n",
		prof.ExitCode, prof.TotalInsts, prof.TotalCycles, model.Name, model.MHz, float64(prof.DurationNanos)/1e9)
	os.Exit(prof.ExitCode & 0x7f)
}
