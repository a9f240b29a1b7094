package main

import (
	"rvdyn/internal/obs"
	"rvdyn/internal/patch"
)

// layerAcc totals what the traced operations of a workload did in the
// analysis, rewriting and execution layers.
type layerAcc struct {
	funcs, blocks, insts int // parsed
	liveFuncs, sites     int
	kinds                map[patch.PatchKind]int
	instret, cycles      uint64
}

func (a *layerAcc) addRewrite(r *rewritten) {
	a.funcs += r.cfg.Stats.Functions
	a.blocks += r.cfg.Stats.Blocks
	a.insts += r.cfg.Stats.Instructions
	a.liveFuncs += len(r.funcs)
	a.sites += len(r.points)
	if a.kinds == nil {
		a.kinds = map[patch.PatchKind]int{}
	}
	for _, p := range r.patches {
		a.kinds[p.Kind]++
	}
}

func (a *layerAcc) addRun(instret, cycles uint64) {
	a.instret += instret
	a.cycles += cycles
}

// put reports the totals per traced operation, and the parser's rate over
// its self time.
func (a *layerAcc) put(m map[string]float64, w *window) {
	n := float64(w.traced)
	m["parse.functions"] = float64(a.funcs) / n
	m["parse.blocks"] = float64(a.blocks) / n
	m["parse.insts_per_us"] = ratio(float64(a.insts), float64(w.attr.self["parse.parse"].Nanoseconds())/1e3)
	m["dataflow.liveness_funcs"] = float64(a.liveFuncs) / n
	m["patch.sites"] = float64(a.sites) / n
	m["patch.kind.cj"] = float64(a.kinds[patch.PatchCJ]) / n
	m["patch.kind.jal"] = float64(a.kinds[patch.PatchJAL]) / n
	m["patch.kind.auipc_jalr"] = float64(a.kinds[patch.PatchAuipcJalr]) / n
	m["emu.instret"] = float64(a.instret) / n
	m["emu.cycles"] = float64(a.cycles) / n
}

// emuCounters reports the emulator's registry (emu.Metrics) over n traced
// operations.
func emuCounters(m map[string]float64, reg *obs.Registry, n int) {
	c := func(name string) float64 { return float64(reg.Counter(name).Load()) }
	hitRatio := func(kind string) float64 {
		h, miss := c("emu.tlb."+kind+".hits"), c("emu.tlb."+kind+".misses")
		return ratio(h, h+miss)
	}
	m["emu.trace.builds"] = c("emu.trace.builds") / float64(n)
	m["emu.trace.side_exit_ratio"] = ratio(c("emu.trace.side_exits"), c("emu.trace.hits"))
	m["emu.block_cache.builds"] = c("emu.block_cache.builds") / float64(n)
	m["emu.chain.hits"] = c("emu.chain.hits") / float64(n)
	m["emu.tlb.read.hit_ratio"] = hitRatio("read")
	m["emu.tlb.write.hit_ratio"] = hitRatio("write")
	m["emu.tlb.fetch.hit_ratio"] = hitRatio("fetch")
}

// dbiCounters reports the DBI engine's registry (dbi.Metrics) over n traced
// operations.
func dbiCounters(m map[string]float64, reg *obs.Registry, n int) {
	c := func(name string) float64 { return float64(reg.Counter(name).Load()) }
	m["dbi.translations"] = c("emu.dbi.translations") / float64(n)
	m["dbi.chain.patches"] = c("emu.dbi.chain.patches") / float64(n)
	m["dbi.indirect_exits"] = c("emu.dbi.indirect_exits") / float64(n)
	m["dbi.ibl.hit_ratio"] = ratio(c("emu.dbi.ibl.hits"), c("emu.dbi.ibl.hits")+c("emu.dbi.ibl.misses"))
	m["dbi.ibc.hit_ratio"] = ratio(c("emu.dbi.ibc.hits"), c("emu.dbi.ibc.hits")+c("emu.dbi.ibc.misses"))
}
