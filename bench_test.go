// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations DESIGN.md calls out. Each Table benchmark runs the
// Section 4.1 workload under one cell of the Section 4.3 table and reports
// the virtual-time metrics that correspond to the paper's wall-clock
// seconds (see EXPERIMENTS.md for the recorded comparison):
//
//	virtual_ns/run   application-measured elapsed time of the timed loop
//	overhead_%       that run's overhead over the matching Base cell
//
// Run with:
//
//	go test -bench=. -benchmem
package rvdyn_test

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/proc"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// Benchmark workload scale: large enough that per-block instrumentation
// dominates, small enough for iteration. The paper uses n=100; overhead
// percentages are scale-independent (they depend on work per block, not on
// block count).
const (
	benchN    = 32
	benchReps = 1
)

type tableCell struct {
	points string // "", "entry", "blocks"
	mode   codegen.Mode
	model  func() *emu.CostModel
}

// buildCell assembles and (if requested) instruments the workload.
func buildCell(b *testing.B, cell tableCell) *elfrv.File {
	b.Helper()
	file, err := workload.BuildMatmul(benchN, benchReps, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if cell.points == "" {
		return file
	}
	bin, err := core.FromFile(file)
	if err != nil {
		b.Fatal(err)
	}
	fn, err := bin.FindFunction("multiply")
	if err != nil {
		b.Fatal(err)
	}
	m := bin.NewMutator(cell.mode)
	counter := m.NewVar("bench_counter", 8)
	var pts []snippet.Point
	if cell.points == "entry" {
		pts = []snippet.Point{snippet.FuncEntry(fn)}
	} else {
		pts = snippet.BlockEntries(fn)
	}
	for _, pt := range pts {
		if err := m.InsertSnippet(pt, snippet.Increment(counter)); err != nil {
			b.Fatal(err)
		}
	}
	out, err := m.Rewrite()
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// runCell executes the built binary once and returns the app-measured
// elapsed virtual nanoseconds.
func runCell(b *testing.B, file *elfrv.File, model *emu.CostModel) uint64 {
	b.Helper()
	cpu, err := emu.New(file, model)
	if err != nil {
		b.Fatal(err)
	}
	if r := cpu.Run(0); r != emu.StopExit {
		b.Fatalf("stopped: %v (%v)", r, cpu.LastTrap())
	}
	sym, ok := file.Symbol("elapsed_ns")
	if !ok {
		b.Fatal("no elapsed_ns symbol")
	}
	ns, err := cpu.Mem.Read64(sym.Value)
	if err != nil {
		b.Fatal(err)
	}
	return ns
}

// benchTable is the harness for one cell of the Section 4.3 table.
func benchTable(b *testing.B, cell tableCell) {
	if testing.Short() {
		b.Skip("full-table cell: skipped in -short mode")
	}
	file := buildCell(b, cell)
	baseFile := file
	if cell.points != "" {
		baseFile = buildCell(b, tableCell{mode: cell.mode, model: cell.model})
	}
	var ns, baseNS uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns = runCell(b, file, cell.model())
	}
	b.StopTimer()
	baseNS = runCell(b, baseFile, cell.model())
	b.ReportMetric(float64(ns), "virtual_ns/run")
	if cell.points != "" {
		b.ReportMetric(100*(float64(ns)/float64(baseNS)-1), "overhead_%")
	}
}

// The six cells of the Section 4.3 table. The x86 column pairs the
// spill-always codegen mode with the x86-comparator cost model; the RISC-V
// column pairs the dead-register mode with the P550 model (DESIGN.md).

func BenchmarkTableBaseX86(b *testing.B) {
	benchTable(b, tableCell{mode: codegen.ModeSpillAlways, model: emu.X86Comparator})
}

func BenchmarkTableBaseRISCV(b *testing.B) {
	benchTable(b, tableCell{mode: codegen.ModeDeadRegister, model: emu.P550})
}

func BenchmarkTableFuncCountX86(b *testing.B) {
	benchTable(b, tableCell{points: "entry", mode: codegen.ModeSpillAlways, model: emu.X86Comparator})
}

func BenchmarkTableFuncCountRISCV(b *testing.B) {
	benchTable(b, tableCell{points: "entry", mode: codegen.ModeDeadRegister, model: emu.P550})
}

func BenchmarkTableBBCountX86(b *testing.B) {
	benchTable(b, tableCell{points: "blocks", mode: codegen.ModeSpillAlways, model: emu.X86Comparator})
}

func BenchmarkTableBBCountRISCV(b *testing.B) {
	benchTable(b, tableCell{points: "blocks", mode: codegen.ModeDeadRegister, model: emu.P550})
}

// ---------------------------------------------------------------------------
// Figure 1: the three instrumentation variants, each counting multiply
// entries; the benchmark measures end-to-end tool time (analysis +
// instrumentation + execution).

func fig1Workload(b *testing.B) *elfrv.File {
	b.Helper()
	if testing.Short() {
		b.Skip("end-to-end variant benchmark: skipped in -short mode")
	}
	file, err := workload.BuildMatmul(12, 2, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return file
}

func BenchmarkFig1StaticRewrite(b *testing.B) {
	file := fig1Workload(b)
	for i := 0; i < b.N; i++ {
		bin, err := core.FromFile(file)
		if err != nil {
			b.Fatal(err)
		}
		fn, _ := bin.FindFunction("multiply")
		m := bin.NewMutator(codegen.ModeDeadRegister)
		v := m.NewVar("c", 8)
		if err := m.AtFuncEntry(fn, snippet.Increment(v)); err != nil {
			b.Fatal(err)
		}
		out, err := m.Rewrite()
		if err != nil {
			b.Fatal(err)
		}
		cpu, err := emu.New(out, emu.P550())
		if err != nil {
			b.Fatal(err)
		}
		if r := cpu.Run(0); r != emu.StopExit {
			b.Fatal(r)
		}
	}
}

func BenchmarkFig1DynamicSpawn(b *testing.B) {
	file := fig1Workload(b)
	for i := 0; i < b.N; i++ {
		bin, err := core.FromFile(file)
		if err != nil {
			b.Fatal(err)
		}
		fn, _ := bin.FindFunction("multiply")
		p, err := bin.Launch(emu.P550())
		if err != nil {
			b.Fatal(err)
		}
		v := p.NewVar("c", 8)
		if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
			snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
			b.Fatal(err)
		}
		if ev, err := p.Continue(); err != nil || ev.Kind != proc.EventExit {
			b.Fatalf("ev=%+v err=%v", ev, err)
		}
	}
}

func BenchmarkFig1DynamicAttach(b *testing.B) {
	file := fig1Workload(b)
	for i := 0; i < b.N; i++ {
		bin, err := core.FromFile(file)
		if err != nil {
			b.Fatal(err)
		}
		fn, _ := bin.FindFunction("multiply")
		cpu, err := emu.New(bin.File, emu.P550())
		if err != nil {
			b.Fatal(err)
		}
		cpu.Run(200)
		p := bin.Attach(cpu)
		v := p.NewVar("c", 8)
		if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
			snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
			b.Fatal(err)
		}
		if ev, err := p.Continue(); err != nil || ev.Kind != proc.EventExit {
			b.Fatalf("ev=%+v err=%v", ev, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation 1 (DESIGN.md): dead-register allocation vs spill-always,
// isolated to snippet code size and runtime.

func benchAblationRegAlloc(b *testing.B, mode codegen.Mode) {
	if testing.Short() {
		b.Skip("full-run ablation: skipped in -short mode")
	}
	file, err := workload.BuildMatmul(16, 1, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bin, err := core.FromFile(file)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := bin.FindFunction("multiply")
	m := bin.NewMutator(mode)
	v := m.NewVar("c", 8)
	if err := m.AtBlockEntries(fn, snippet.Increment(v)); err != nil {
		b.Fatal(err)
	}
	out, err := m.Rewrite()
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cpu, err := emu.New(out, emu.P550())
		if err != nil {
			b.Fatal(err)
		}
		if r := cpu.Run(0); r != emu.StopExit {
			b.Fatal(r)
		}
		cycles = cpu.Cycles
	}
	b.ReportMetric(float64(cycles), "model_cycles/run")
}

func BenchmarkAblationRegisterAllocationDead(b *testing.B) {
	benchAblationRegAlloc(b, codegen.ModeDeadRegister)
}

func BenchmarkAblationRegisterAllocationSpill(b *testing.B) {
	benchAblationRegAlloc(b, codegen.ModeSpillAlways)
}

// ---------------------------------------------------------------------------
// Ablation 2: compressed-aware entry patching vs always-4-byte patching —
// reported as the ladder rung distribution over a population of synthetic
// patch sites at varying distances and room.

func BenchmarkAblationCompressedPatch(b *testing.B) {
	type site struct {
		from, to, room uint64
	}
	var sites []site
	for d := uint64(64); d <= 1<<22; d *= 4 {
		for _, room := range []uint64{2, 4, 8} {
			sites = append(sites, site{0x400000, 0x400000 + d, room})
			sites = append(sites, site{0x400000 + d, 0x400000, room})
		}
	}
	count := map[patch.PatchKind]int{}
	for i := 0; i < b.N; i++ {
		count = map[patch.PatchKind]int{}
		for _, s := range sites {
			kind, _, err := patch.JumpPatch(s.from, s.to, s.room, riscv.RV64GC, riscv.RegT0, true)
			if err != nil {
				continue
			}
			count[kind]++
		}
	}
	b.ReportMetric(float64(count[patch.PatchCJ]), "c.j_patches")
	b.ReportMetric(float64(count[patch.PatchJAL]), "jal_patches")
	b.ReportMetric(float64(count[patch.PatchAuipcJalr]), "auipc_patches")
	b.ReportMetric(float64(count[patch.PatchTrap]), "trap_patches")
}

// ---------------------------------------------------------------------------
// Ablation 3: parallel vs serial CFG parsing ("fast parallel algorithm",
// Section 2.1), on a 200-function random program so the per-round frontier
// has real fan-out.

func benchParse(b *testing.B, workers int) {
	if testing.Short() {
		b.Skip("200-function parse benchmark: skipped in -short mode")
	}
	file, err := asm.Assemble(workload.RandomProgram(7, 200), asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := symtab.FromFile(file)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parse.Parse(st, parse.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationParallelParseSerial(b *testing.B) { benchParse(b, 1) }
func BenchmarkAblationParallelParse8(b *testing.B)      { benchParse(b, 8) }

// ---------------------------------------------------------------------------
// Pipeline throughput: the full analyze→instrument batch (assemble → parse →
// plan → encode → splice → serialize) over the workload suite plus synthetic
// multi-function programs, at increasing worker counts. The serial/parallel
// ratio is the EXPERIMENTS.md speedup table; output bytes are identical at
// every width (pipeline's golden tests pin that), so the benchmark measures
// pure scheduling, not different work.

func benchPipelineBatch(b *testing.B, workers int) {
	if testing.Short() {
		b.Skip("batch pipeline benchmark: skipped in -short mode")
	}
	jobs := append(pipeline.WorkloadJobs(), pipeline.SyntheticJobs(10, 60, 6)...)
	opts := pipeline.Options{Jobs: workers}
	var emitted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := pipeline.Batch(jobs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(jobs) {
			b.Fatalf("got %d results, want %d", len(results), len(jobs))
		}
		emitted = 0
		for _, res := range results {
			emitted += int64(len(res.ELF))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "binaries/s")
	b.ReportMetric(float64(emitted), "bytes_emitted")
}

func BenchmarkPipelineBatch1(b *testing.B) { benchPipelineBatch(b, 1) }
func BenchmarkPipelineBatch2(b *testing.B) { benchPipelineBatch(b, 2) }
func BenchmarkPipelineBatch4(b *testing.B) { benchPipelineBatch(b, 4) }
func BenchmarkPipelineBatch8(b *testing.B) { benchPipelineBatch(b, 8) }

// ---------------------------------------------------------------------------
// Substrate microbenchmarks: decoder and emulator throughput.

// BenchmarkDecode32 decodes the 32-bit words of the matmul workload built
// without compression, in text order: the instruction mix the parser sees.
func BenchmarkDecode32(b *testing.B) {
	f, err := workload.BuildMatmul(benchN, benchReps, asm.Options{NoCompress: true})
	if err != nil {
		b.Fatal(err)
	}
	text := f.Section(".text").Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * 4 % len(text)
		if _, err := riscv.Decode(text[off:off+4], 0x1000); err != nil {
			b.Fatal(err)
		}
	}
}

// matmulText splits the text of the matmul workload, assembled with the
// default options (compression on), into its instructions in text order.
func matmulText(tb testing.TB) [][]byte {
	f, err := workload.BuildMatmul(benchN, benchReps, asm.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	text := f.Section(".text").Data
	var insts [][]byte
	for off := 0; off < len(text); {
		n := 4
		if text[off]&3 != 3 {
			n = 2
		}
		insts = append(insts, text[off:off+n])
		off += n
	}
	return insts
}

// BenchmarkDecodeCompressed decodes the compressed halfwords of the matmul
// workload, in text order.
func BenchmarkDecodeCompressed(b *testing.B) {
	var halves [][]byte
	for _, in := range matmulText(b) {
		if len(in) == 2 {
			halves = append(halves, in)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := riscv.Decode(halves[i%len(halves)], 0x1000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeAllocFree: riscv.Decode allocates nothing for any legal
// instruction of the matmul text, 16- or 32-bit.
func TestDecodeAllocFree(t *testing.T) {
	var seen [5]int
	for _, in := range matmulText(t) {
		if _, err := riscv.Decode(in, 0x1000); err != nil {
			continue
		}
		seen[len(in)]++
		if n := testing.AllocsPerRun(10, func() { riscv.Decode(in, 0x1000) }); n != 0 {
			t.Errorf("Decode(% x) allocates %.0f times", in, n)
		}
	}
	if seen[2] == 0 || seen[4] == 0 {
		t.Fatalf("matmul text has %d compressed and %d 32-bit legal instructions; want both", seen[2], seen[4])
	}
}

func BenchmarkEmulatorThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("full matmul emulation: skipped in -short mode")
	}
	file, err := workload.BuildMatmul(24, 1, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := emu.New(file, emu.P550())
		if err != nil {
			b.Fatal(err)
		}
		if r := cpu.Run(0); r != emu.StopExit {
			b.Fatal(r)
		}
		insts = cpu.Instret
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "emulated_MIPS")
}

// BenchmarkEmulatorThroughputSlow forces per-instruction dispatch, giving an
// in-tree baseline for the fused-block engine's speedup.
func BenchmarkEmulatorThroughputSlow(b *testing.B) {
	if testing.Short() {
		b.Skip("full matmul emulation: skipped in -short mode")
	}
	file, err := workload.BuildMatmul(24, 1, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := emu.New(file, emu.P550())
		if err != nil {
			b.Fatal(err)
		}
		cpu.Dispatch = emu.DispatchSlow
		if r := cpu.Run(0); r != emu.StopExit {
			b.Fatal(r)
		}
		insts = cpu.Instret
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "emulated_MIPS")
}

// BenchmarkEmulatorObsOverhead guards the observability layer's nil-sink
// fast path: with metrics disabled (the default), throughput must stay
// within noise of BenchmarkEmulatorThroughput — the hot loop checks one
// pointer and touches no atomics. The enabled sub-benchmark quantifies the
// cost of live counters for EXPERIMENTS.md.
func BenchmarkEmulatorObsOverhead(b *testing.B) {
	if testing.Short() {
		b.Skip("full matmul emulation: skipped in -short mode")
	}
	file, err := workload.BuildMatmul(24, 1, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, metrics func() *emu.Metrics) {
		var insts uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cpu, err := emu.New(file, emu.P550())
			if err != nil {
				b.Fatal(err)
			}
			cpu.Obs = metrics()
			if r := cpu.Run(0); r != emu.StopExit {
				b.Fatal(r)
			}
			insts = cpu.Instret
		}
		b.StopTimer()
		b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "emulated_MIPS")
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, func() *emu.Metrics { return nil })
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() *emu.Metrics { return emu.NewMetrics(obs.NewRegistry()) })
	})
}

// BenchmarkEmulatorSampleOverhead guards the sampling trigger's fast path:
// with no sampler configured (the default), the dispatch loop adds one
// predictable branch, so throughput must stay within noise of
// BenchmarkEmulatorThroughput. The enabled sub-benchmarks quantify live
// sampling at several periods for EXPERIMENTS.md — the cost there is the
// per-mark trigger plus the fast path declining superblocks near a mark.
func BenchmarkEmulatorSampleOverhead(b *testing.B) {
	if testing.Short() {
		b.Skip("full matmul emulation: skipped in -short mode")
	}
	file, err := workload.BuildMatmul(24, 1, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, period uint64) {
		var insts, samples uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cpu, err := emu.New(file, emu.P550())
			if err != nil {
				b.Fatal(err)
			}
			if period != 0 {
				samples = 0
				cpu.SetSampler(period, func(c *emu.CPU) bool {
					samples++
					return true
				})
			}
			if r := cpu.Run(0); r != emu.StopExit {
				b.Fatal(r)
			}
			insts = cpu.Instret
		}
		b.StopTimer()
		b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "emulated_MIPS")
		if period != 0 {
			b.ReportMetric(float64(samples), "samples/run")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, 0) })
	b.Run("period=100000", func(b *testing.B) { run(b, 100000) })
	b.Run("period=10000", func(b *testing.B) { run(b, 10000) })
	b.Run("period=1000", func(b *testing.B) { run(b, 1000) })
}

func BenchmarkSnippetGeneration(b *testing.B) {
	v := &snippet.Var{Name: "v", Width: 8, Addr: 0x200000}
	sn := snippet.Increment(v)
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(sn, codegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveness(b *testing.B) {
	file, err := workload.BuildMatmul(8, 1, asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bin, err := core.FromFile(file)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := bin.FindFunction("multiply")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin.Liveness(fn)
	}
}
