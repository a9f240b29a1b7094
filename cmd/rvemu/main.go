// Command rvemu executes a RISC-V ELF binary on the RV64GC emulator — the
// hardware substrate this reproduction uses in place of the paper's SiFive
// P550 board (see DESIGN.md). It reports retired instructions, model
// cycles, and virtual time. Profiles of a run, instrumented or sampled,
// come from `rvdyn profile`.
//
// Usage:
//
//	rvemu [-model p550|x86] [-max N] [-trace] [-histo] [-slow|-notrace] [-stats] prog.elf
//
// -stats writes the emulator's observability counters to stderr on exit in
// the Prometheus text exposition format (emu.tier.trace.instret renders as
// emu_tier_trace_instret): instructions retired, superblock-cache
// hits/builds/invalidations, chain hits/severs, trace counters, macro-op
// fusion counts per fusion row, per-tier retired instructions and cycles and
// per-number syscall counts. A plain "wall:" line after the exposition gives
// the wall-clock emulation rate in MIPS. See README.md ("Observability &
// profiling") for how to read them.
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
	stats := flag.Bool("stats", false, "write emulator counters (Prometheus text exposition) and wall-clock MIPS to stderr on exit")
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
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			log.Fatal(err)
		}
		mips := 0.0
		if wall > 0 {
			mips = float64(cpu.Instret) / wall.Seconds() / 1e6
		}
		fmt.Fprintf(os.Stderr, "wall:    %.1f MIPS (%.3f ms)\n", mips, float64(wall)/1e6)
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
