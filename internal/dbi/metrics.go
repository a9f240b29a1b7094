package dbi

import "rvdyn/internal/obs"

// Metrics holds the DBI engine's observability counters. The zero value
// (nil handles) disables collection — obs counters discard increments on nil
// receivers — so the engine never branches on enablement.
type Metrics struct {
	// Translations counts basic blocks translated into the code cache
	// (including retranslations after invalidation).
	Translations *obs.Counter
	// ChainPatches counts exit stubs rewritten into direct jumps to an
	// in-cache target; after the patch, that edge never leaves the cache
	// again, so steady-state loops are invisible to every counter here.
	ChainPatches *obs.Counter
	// ChainHits counts cache exits whose target was already translated —
	// block reuse, the warm-path complement of Translations.
	ChainHits *obs.Counter
	// Invalidations counts translations dropped because the process stored
	// into their source bytes (self-modifying code) or a probe was attached
	// over them.
	Invalidations *obs.Counter
	// IndirectExits counts indirect-jump (jalr) exits that reached the
	// engine; with inline lookup these are exactly the lookup misses.
	IndirectExits *obs.Counter
	// IBLHits counts indirect jumps the inline-lookup stubs resolved
	// in-cache, without an engine round trip.
	IBLHits *obs.Counter
	// IBLMisses counts inline-lookup misses (first sight of a target, or a
	// severed entry after invalidation) — each one is an engine round trip
	// that refills the lookup table.
	IBLMisses *obs.Counter
	// ProbeRemovals counts probes detached mid-run; each removal patches
	// the probe body out of every live translation in place, without a
	// cache flush.
	ProbeRemovals *obs.Counter
	// Flushes counts whole-cache resets (cache exhaustion or Detach).
	Flushes *obs.Counter
	// Probes counts probe snippets attached.
	Probes *obs.Counter
	// Deopts counts falls back to native execution for untranslatable
	// targets (wild jumps about to trap).
	Deopts *obs.Counter
}

// NewMetrics resolves the DBI counters in r under the emu.dbi.* prefix.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Translations:  r.Counter("emu.dbi.translations"),
		ChainPatches:  r.Counter("emu.dbi.chain.patches"),
		ChainHits:     r.Counter("emu.dbi.chain.hits"),
		Invalidations: r.Counter("emu.dbi.invalidations"),
		IndirectExits: r.Counter("emu.dbi.indirect_exits"),
		IBLHits:       r.Counter("emu.dbi.ibl.hits"),
		IBLMisses:     r.Counter("emu.dbi.ibl.misses"),
		ProbeRemovals: r.Counter("emu.dbi.probe_removals"),
		Flushes:       r.Counter("emu.dbi.flushes"),
		Probes:        r.Counter("emu.dbi.probes"),
		Deopts:        r.Counter("emu.dbi.deopts"),
	}
}
