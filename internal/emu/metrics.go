package emu

import (
	"fmt"

	"rvdyn/internal/obs"
)

// Metrics receives the emulator's observability counters, backed by an
// obs.Registry. A nil *Metrics (the CPU default) disables collection
// entirely: the fused dispatch loop checks one pointer and touches no
// atomics, so fast-path throughput is unchanged (the
// BenchmarkEmulatorObsOverhead guard pins this).
type Metrics struct {
	// Instructions counts retired instructions, synced at every Run return
	// (never per instruction — Instret already tracks that architecturally).
	Instructions *obs.Counter
	// BlockHits counts block-map lookups served by a cached superblock
	// (dispatches a chain link served are ChainHits instead), synced at
	// every Run return; BlockBuilds counts blocks (re)decoded.
	BlockHits   *obs.Counter
	BlockBuilds *obs.Counter
	// BlockInvalidations counts icache-generation bumps — each one retires
	// every cached superblock (stores into code, WriteMem patches, fence.i).
	BlockInvalidations *obs.Counter
	// Syscalls counts serviced syscalls; per-number counts register as
	// emu.syscall.<num> on first occurrence.
	Syscalls *obs.Counter

	// ChainHits counts block→block dispatches served from a superblock's
	// cached successor links (no block-map probe); ChainSevers counts
	// cached links dropped because the target's generation went stale
	// (SMC or dynamic patching).
	ChainHits   *obs.Counter
	ChainSevers *obs.Counter

	// Trace-tier counters (trace.go). TraceBuilds counts hot chains
	// compiled into flattened traces; TraceHits counts trace dispatches;
	// TracePasses counts completed loop passes (passes/hits is the loop
	// residency — how many iterations each dispatch absorbs);
	// TraceSideExits counts mispredicted-branch exits back to the
	// dispatcher; TraceSevers counts traces dropped by code invalidation
	// (SMC or dynamic patching), at dispatch or mid-trace.
	TraceBuilds    *obs.Counter
	TraceHits      *obs.Counter
	TracePasses    *obs.Counter
	TraceSideExits *obs.Counter
	TraceSevers    *obs.Counter

	// Software-TLB probe counters, per access kind. hits/(hits+misses) is
	// the translation hit rate; the fetch TLB only sees decode-cache
	// misses, so its traffic is naturally tiny on cached code.
	TLBReadHits, TLBReadMisses   *obs.Counter
	TLBWriteHits, TLBWriteMisses *obs.Counter
	TLBFetchHits, TLBFetchMisses *obs.Counter

	// Fused counts macro-op fusions applied at block build, one counter per
	// fusions row (emu.fuse.<name>). A superop built on a pair counts both
	// rows; a rebuilt block re-counts its fusions, and traces, which copy
	// fused block ops, count nothing. This tracks fusion opportunity in
	// decoded code, not retirement.
	Fused [numFuseKinds]*obs.Counter

	// TierInstret and TierCycles attribute retired instructions and
	// cycles to the tier that retired them, emu.tier.<tier>.instret and
	// .cycles for tier slow (per instruction), block (a superblock's op
	// stream) and trace; the three sum to Instructions (and to Cycles).
	TierInstret, TierCycles [numTiers]*obs.Counter

	reg *obs.Registry
}

// NewMetrics resolves the emulator's counters in r. Attach the result to
// CPU.Obs to enable collection.
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{
		Instructions:       r.Counter("emu.instructions_retired"),
		BlockHits:          r.Counter("emu.block_cache.hits"),
		BlockBuilds:        r.Counter("emu.block_cache.builds"),
		BlockInvalidations: r.Counter("emu.block_cache.invalidations"),
		Syscalls:           r.Counter("emu.syscalls"),
		ChainHits:          r.Counter("emu.chain.hits"),
		ChainSevers:        r.Counter("emu.chain.severs"),
		TraceBuilds:        r.Counter("emu.trace.builds"),
		TraceHits:          r.Counter("emu.trace.hits"),
		TracePasses:        r.Counter("emu.trace.passes"),
		TraceSideExits:     r.Counter("emu.trace.side_exits"),
		TraceSevers:        r.Counter("emu.trace.severs"),
		TLBReadHits:        r.Counter("emu.tlb.read.hits"),
		TLBReadMisses:      r.Counter("emu.tlb.read.misses"),
		TLBWriteHits:       r.Counter("emu.tlb.write.hits"),
		TLBWriteMisses:     r.Counter("emu.tlb.write.misses"),
		TLBFetchHits:       r.Counter("emu.tlb.fetch.hits"),
		TLBFetchMisses:     r.Counter("emu.tlb.fetch.misses"),
		reg:                r,
	}
	for k := 0; k < numFuseKinds; k++ {
		m.Fused[k] = r.Counter("emu.fuse." + fusions[k].name)
	}
	for k, name := range [numTiers]string{"slow", "block", "trace"} {
		m.TierInstret[k] = r.Counter("emu.tier." + name + ".instret")
		m.TierCycles[k] = r.Counter("emu.tier." + name + ".cycles")
	}
	return m
}

// syscall records one serviced syscall, bucketed by number. Called from the
// syscall path only (cold), so the per-number registry lookup is fine.
func (m *Metrics) syscall(num uint64) {
	if m == nil {
		return
	}
	m.Syscalls.Inc()
	m.reg.Counter(fmt.Sprintf("emu.syscall.%d", num)).Inc()
}
