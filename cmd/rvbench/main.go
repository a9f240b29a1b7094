// Command rvbench records the emulator's performance trajectory. It runs a
// fixed workload set — the paper's matmul on both dispatch paths, plus every
// program in the workload suite — measures wall-clock emulation rate, and
// writes the results as JSON (BENCH_emu.json at the repo root is the
// committed baseline).
//
// Usage:
//
//	rvbench [-reps N] [-out bench.json]            record a run
//	rvbench -check BENCH_emu.json [-out new.json]  regression gate
//
// In -check mode the run is compared against the baseline file: if the
// matmul trace-dispatch MIPS falls below threshold×baseline (default 0.8,
// i.e. a >20% regression), rvbench prints a per-workload diff and exits
// nonzero. Only matmul gates — the suite programs retire too few
// instructions for stable wall-clock rates — but every workload is recorded
// so trends stay visible in the artifact history. Because absolute MIPS
// tracks machine load, a run that misses the absolute gate still passes if
// its trace/slow dispatch ratio held relative to baseline: the slow path
// shares none of the trace-tier machinery, so a uniform slowdown is load,
// while an engine regression shows up in the ratio.
//
// Dispatch tiers per row: "slow" is per-instruction, "fast" is
// superblock/chained dispatch with trace compilation off (continuous with
// pre-trace baselines), "trace" is the full engine, and "dbi"/"dbi-trace"
// are the instrumented runs with traces off/on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"rvdyn/internal/asm"
	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// Schema is bumped when the JSON layout changes incompatibly; -check refuses
// to compare across schemas rather than misreading old baselines.
const Schema = 1

type Result struct {
	Name         string  `json:"name"`
	Dispatch     string  `json:"dispatch"` // "fast" or "slow"
	Instructions uint64  `json:"instructions"`
	WallNS       int64   `json:"wall_ns"` // best-of-reps
	MIPS         float64 `json:"mips"`
}

type Report struct {
	Schema    int      `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Reps      int      `json:"reps"`
	Workloads []Result `json:"workloads"`
}

// gateName/gateDispatch identify the single workload the -check gate tests.
const (
	gateName     = "matmul"
	gateDispatch = "trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rvbench: ")
	reps := flag.Int("reps", 3, "repetitions per workload; best wall time wins")
	out := flag.String("out", "", "write the run's JSON report to this file")
	check := flag.String("check", "", "compare against this baseline JSON and fail on regression")
	threshold := flag.Float64("threshold", 0.8, "minimum acceptable MIPS as a fraction of baseline")
	flag.Parse()

	rep := Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Reps:      *reps,
	}

	// matmul at the BenchmarkEmulatorThroughput scale, both dispatch paths.
	mm, err := workload.BuildMatmul(24, 1, asm.Options{})
	if err != nil {
		log.Fatalf("build matmul: %v", err)
	}
	rep.Workloads = append(rep.Workloads,
		measure(gateName, gateDispatch, mm, *reps, emu.DispatchTrace),
		measure(gateName, "fast", mm, *reps, emu.DispatchBlock),
		measure(gateName, "slow", mm, *reps, emu.DispatchSlow),
		measureDBI("dbi-matmul", mm, []string{"multiply", "init_matrices"}, *reps, emu.DispatchBlock),
	)
	for _, p := range workload.Programs() {
		if p.Name == gateName {
			continue // already measured above, at benchmark scale
		}
		f, err := asm.Assemble(p.Source, asm.Options{})
		if err != nil {
			log.Fatalf("assemble %s: %v", p.Name, err)
		}
		rep.Workloads = append(rep.Workloads, measure(p.Name, "fast", f, *reps, emu.DispatchBlock))
		if p.Name == "fib" {
			// fib is the indirect-branch-dense workload (every recursive
			// return is a jalr): its trace row shows how far return-heavy
			// code gets from the trace tier, and its dbi rows track the
			// inline-lookup path (with and without traces over the
			// translated code), where dbi-matmul mostly exercises chained
			// direct edges.
			rep.Workloads = append(rep.Workloads,
				measure(p.Name, "trace", f, *reps, emu.DispatchTrace),
				measureDBI("dbi-fib", f, p.Funcs, *reps, emu.DispatchBlock),
				measureDBI("dbi-fib", f, p.Funcs, *reps, emu.DispatchTrace),
			)
		}
	}

	for _, r := range rep.Workloads {
		fmt.Printf("%-24s %-5s %12d insts %12d ns %9.2f MIPS\n",
			r.Name, r.Dispatch, r.Instructions, r.WallNS, r.MIPS)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *check != "" {
		base, err := readReport(*check)
		if err != nil {
			log.Fatalf("read baseline: %v", err)
		}
		if err := gate(base, &rep, *threshold); err != nil {
			log.Fatal(err)
		}
		fmt.Println("perf gate: OK")
	}
}

// measure runs file reps times and keeps the fastest wall-clock run. Best-of
// (not mean) is the right statistic on shared CI machines: interference only
// ever slows a run down, so the minimum is the closest observable to the
// machine's true rate.
func measure(name, label string, file *elfrv.File, reps int, dispatch emu.Dispatch) Result {
	best := Result{Name: name, Dispatch: label, WallNS: 1<<63 - 1}
	for i := 0; i < reps; i++ {
		cpu, err := emu.New(file, emu.P550())
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		cpu.Dispatch = dispatch
		start := time.Now()
		if r := cpu.Run(0); r != emu.StopExit {
			log.Fatalf("%s stopped with %v (%v)", name, r, cpu.LastTrap())
		}
		ns := time.Since(start).Nanoseconds()
		if ns <= 0 {
			ns = 1
		}
		if ns < best.WallNS {
			best.WallNS = ns
			best.Instructions = cpu.Instret
			best.MIPS = float64(cpu.Instret) / float64(ns) * 1e3
		}
	}
	return best
}

// measureDBI runs file under the dynamic binary instrumentation engine with
// call-count probes at the named function entries, so the recorded rate
// includes translation, probe execution, and engine round trips — the
// dynamic-mode overhead the static numbers omit. Instructions and MIPS count
// guest instructions only (raw Instret minus the DBI overhead the engine's
// compensation state records), so the rate is comparable with the native
// rows and cutting overhead raises it. Not gated: the point is the trend of
// the dbi/fast ratio across the artifact history. dispatch selects the tiers
// over the translated code ("dbi" for DispatchBlock, "dbi-trace" rows).
func measureDBI(name string, file *elfrv.File, funcs []string, reps int, dispatch emu.Dispatch) Result {
	label := "dbi-trace"
	if dispatch == emu.DispatchBlock {
		label = "dbi"
	}
	best := Result{Name: name, Dispatch: label, WallNS: 1<<63 - 1}
	for i := 0; i < reps; i++ {
		p, err := proc.Launch(file, emu.P550())
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		p.CPU().Dispatch = dispatch
		e, err := dbi.Attach(p, file, dbi.Options{})
		if err != nil {
			log.Fatalf("%s: attach: %v", name, err)
		}
		for _, fn := range funcs {
			sym, ok := file.Symbol(fn)
			if !ok {
				log.Fatalf("%s: no symbol %s", name, fn)
			}
			v := e.NewVar("bench_"+fn, 8)
			if err := e.ProbeAt(sym.Value, snippet.Increment(v)); err != nil {
				log.Fatalf("%s: probe %s: %v", name, fn, err)
			}
		}
		start := time.Now()
		ev, err := e.Continue()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if ev.Kind != proc.EventExit {
			log.Fatalf("%s stopped with %v, not exit", name, ev.Kind)
		}
		ns := time.Since(start).Nanoseconds()
		if ns <= 0 {
			ns = 1
		}
		if ns < best.WallNS {
			guest := uint64(int64(p.CPU().Instret) - e.Comp().ExtraInstret)
			best.WallNS = ns
			best.Instructions = guest
			best.MIPS = float64(guest) / float64(ns) * 1e3
		}
	}
	return best
}

func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %d, this rvbench speaks %d", path, r.Schema, Schema)
	}
	return &r, nil
}

func find(r *Report, name, dispatch string) *Result {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name && r.Workloads[i].Dispatch == dispatch {
			return &r.Workloads[i]
		}
	}
	return nil
}

// gate fails if the gating workload regressed below threshold×baseline,
// printing a full per-workload comparison either way.
func gate(base, cur *Report, threshold float64) error {
	fmt.Printf("\n%-24s %-5s %12s %12s %8s\n", "workload", "disp", "baseline", "current", "ratio")
	for _, b := range base.Workloads {
		c := find(cur, b.Name, b.Dispatch)
		if c == nil {
			fmt.Printf("%-24s %-5s %9.2f MIPS %12s\n", b.Name, b.Dispatch, b.MIPS, "(missing)")
			continue
		}
		fmt.Printf("%-24s %-5s %9.2f MIPS %9.2f MIPS %7.2fx\n",
			b.Name, b.Dispatch, b.MIPS, c.MIPS, c.MIPS/b.MIPS)
	}
	b := find(base, gateName, gateDispatch)
	if b == nil {
		return fmt.Errorf("baseline has no %s/%s entry to gate on", gateName, gateDispatch)
	}
	c := find(cur, gateName, gateDispatch)
	if c == nil {
		return fmt.Errorf("current run has no %s/%s entry", gateName, gateDispatch)
	}
	if c.MIPS < b.MIPS*threshold {
		// Noise-cancelled fallback: absolute MIPS moves with machine load,
		// but an engine regression hits the trace tier specifically — the
		// slow path shares none of the trace/chained dispatch machinery. If
		// the within-run trace/slow ratio held, the machine is uniformly
		// slow and the engine is fine.
		bs, cs := find(base, gateName, "slow"), find(cur, gateName, "slow")
		if bs != nil && cs != nil && bs.MIPS > 0 && cs.MIPS > 0 {
			baseRatio, curRatio := b.MIPS/bs.MIPS, c.MIPS/cs.MIPS
			if curRatio >= baseRatio*threshold {
				fmt.Printf("absolute MIPS below gate (%.2f < %.0f%% of %.2f) but the trace/slow "+
					"dispatch ratio held (%.1fx vs %.1fx baseline): machine load, not a regression\n",
					c.MIPS, threshold*100, b.MIPS, curRatio, baseRatio)
				return nil
			}
		}
		return fmt.Errorf("perf gate FAILED: %s/%s at %.2f MIPS is below %.0f%% of the %.2f MIPS baseline",
			gateName, gateDispatch, c.MIPS, threshold*100, b.MIPS)
	}
	return nil
}
