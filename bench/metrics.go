package main

// metricDef names one metric and its unit. The two lists below are the
// metrics BENCHMARK.json declares, in the order the benchmark prints them;
// TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit string
}

// endToEnd metrics come from an untraced run and apply to every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
}

// layerSpans are the layer calls the benchmark wraps in spans. Each one's
// self time is reported as "<name>_pct", its share of the traced operations'
// wall time; the shares and bench.unattributed_pct add up to 100. A layer
// that a workload does not call reads 0 there.
var layerSpans = []string{
	"elfrv.read", "elfrv.write", "symtab.build", "parse.parse",
	"dataflow.liveness", "patch.plan", "patch.rewrite", "patch.layout",
	"patch.encode", "patch.splice", "emu.new", "emu.run", "proc.launch",
	"dbi.attach", "dbi.probe", "dbi.run", "net.client", "server.handler",
}

// perLayer metrics come from a traced run. Counts marked per op are
// averaged over the traced operations; a metric of a layer the workload
// does not use reads 0.
var perLayer = append(layerShareDefs(), []metricDef{
	{"bench.unattributed_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.traced_op_ms_mean", "ms"},
	{"asm.assemble_us", "us"},
	{"runtime.gc_cycles_per_op", "count"},

	{"parse.functions", "count"},
	{"parse.blocks", "count"},
	{"parse.insts_per_us", "1/us"},
	{"dataflow.liveness_funcs", "count"},
	{"patch.sites", "count"},
	{"patch.kind.cj", "count"},
	{"patch.kind.jal", "count"},
	{"patch.kind.auipc_jalr", "count"},
	{"codegen.snippet_insts", "count"},

	{"overhead_pct", "%"},
	{"growth_pct", "%"},
	{"guest_mips", "MIPS"},

	{"emu.instret", "count"},
	{"emu.cycles", "count"},
	{"emu.trace.builds", "count"},
	{"emu.trace.side_exit_ratio", "ratio"},
	{"emu.block_cache.builds", "count"},
	{"emu.chain.hits", "count"},
	{"emu.tlb.read.hit_ratio", "ratio"},
	{"emu.tlb.write.hit_ratio", "ratio"},
	{"emu.tlb.fetch.hit_ratio", "ratio"},

	{"dbi.translations", "count"},
	{"dbi.chain.patches", "count"},
	{"dbi.indirect_exits", "count"},
	{"dbi.ibl.hit_ratio", "ratio"},
	{"dbi.ibc.hit_ratio", "ratio"},
	{"dbi.raw_per_native", "ratio"},

	{"server.hit_share", "%"},
	{"server.partial_share", "%"},
	{"server.miss_share", "%"},
	{"server.hit_time_pct", "%"},
	{"server.partial_time_pct", "%"},
	{"server.miss_time_pct", "%"},
	{"server.cache.evictions", "count"},
	{"server.cache.coalesced", "count"},
	{"server.cache.bytes", "MiB"},
}...)

func layerShareDefs() []metricDef {
	defs := make([]metricDef, len(layerSpans))
	for i, l := range layerSpans {
		defs[i] = metricDef{l + "_pct", "%"}
	}
	return defs
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
