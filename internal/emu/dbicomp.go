package emu

// CompDelta records how far a stretch of DBI-translated code diverges from
// the original program it stands in for: Insts extra retired instructions
// and Cycles extra cost-model cycles. The DBI engine computes one delta per
// overhead site (probe splice, materialization expansion, exit stub) at
// translation time and references it by index from a dbi.acc/dbi.jt
// instruction woven into the cache (see internal/riscv/xdbi.go).
type CompDelta struct {
	Insts  int64
	Cycles int64
	// JT classifies the dbi.jt this delta belongs to, so the CPU can bucket
	// in-cache indirect-branch resolutions without extra cache-resident
	// state: DBIJTIBL for hash-table lookup hits, DBIJTIBC for per-site
	// inline-cache hits, zero for everything else (dbi.acc deltas). Part of
	// the comparable key on purpose — otherwise interning could fold an IBC
	// delta into an IBL one with identical costs.
	JT uint8
}

// CompDelta.JT values.
const (
	DBIJTNone uint8 = iota
	DBIJTIBL
	DBIJTIBC
)

// DBIComp is the per-CPU counter-compensation state a DBI engine installs
// at attach time (CPU.DBIComp). It accumulates the translated run's
// divergence from a native run so reads of the cycle/instret CSRs can
// subtract it back out — the counter-virtualization half of DBI
// transparency. It also provides four scratch registers (custom CSRs
// 0x7C0–0x7C3) the inline indirect-branch lookup stubs use to save and
// restore the guest registers they clobber without touching guest memory.
//
// A nil DBIComp (the default) leaves every native behaviour untouched:
// the scratch CSRs stay unimplemented and counter reads are raw.
type DBIComp struct {
	// Virtualize enables compensation on cycle/instret CSR reads. Off, the
	// CSRs expose the raw (DBI-inflated) counters while scratch CSRs and
	// delta accumulation keep working — the engine needs those regardless.
	Virtualize bool

	// ExtraInstret/ExtraCycles are the running totals: DBI-run counter
	// minus what the native run would read at the same program point. The
	// engine also adjusts them host-side when it services a cache exit
	// whose stub accounting assumed an instruction that did not retire.
	ExtraInstret int64
	ExtraCycles  int64

	// IBLHits counts inline-lookup stubs that resolved their target through
	// the hash table (dbi.jt retirements with an IBL-marked delta) without
	// an engine round trip; IBCHits counts resolutions one rung faster —
	// the per-site inline cache matched and the hash probe never ran.
	IBLHits uint64
	IBCHits uint64

	// Scratch backs the custom CSRs 0x7C0..0x7C3. The lookup stubs use
	// 0x7C0–0x7C2 for register save/restore and 0x7C3 for the original
	// (and then translated) jump target.
	Scratch [4]uint64

	// Deltas is the compensation table dbi.acc/dbi.jt index into via their
	// 12-bit immediate (index = imm + 2048, capacity 4096).
	Deltas []CompDelta

	// JTProf is a ring of recent inline-resolved indirect transfers, the
	// profile feed for the engine's per-site inline-cache policy. Every
	// dbi.jt retirement whose rd/rs1 fields carry a nonzero site tag
	// appends one sample; the engine drains the ring at each re-entry
	// (stub miss, budget stop) and steers each site's cached pair toward
	// its hottest target. JTProfN is monotonic; the ring index is
	// JTProfN % JTProfSize, and a slow-draining engine simply loses the
	// oldest samples (the profile is approximate by design).
	JTProf  [JTProfSize]JTSample
	JTProfN uint64
}

// JTProfSize is the JTProf ring capacity.
const JTProfSize = 256

// JTSample is one JTProf entry: which jalr site resolved (by its inline-
// cache slot index, 0 = untagged) and the translated cache address it
// jumped to — the engine maps that back to the target translation.
type JTSample struct {
	Site  uint16
	Cache uint64
}

// dbiScratchBase is the first DBI scratch CSR: DBIComp.Scratch[i] backs
// CSR dbiScratchBase+i.
const dbiScratchBase = 0x7C0

// isDBIScratchCSR reports whether csr is one of the DBI scratch CSRs
// (0x7C0–0x7C3).
func isDBIScratchCSR(csr uint16) bool {
	return csr >= dbiScratchBase && csr < dbiScratchBase+uint16(len(DBIComp{}.Scratch))
}

// apply accumulates the delta at idx; it reports false when idx is out of
// range (a translation bug — the engine only emits indices it allocated).
func (dc *DBIComp) apply(idx int64) bool {
	if idx < 0 || idx >= int64(len(dc.Deltas)) {
		return false
	}
	d := dc.Deltas[idx]
	dc.ExtraInstret += d.Insts
	dc.ExtraCycles += d.Cycles
	return true
}
