package emu

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/riscv"
)

// Stack and heap placement for emulated processes. MmapBase is exported so
// alternative engines (the oracle's reference interpreter) can mirror the
// process layout exactly.
const (
	StackTop  = 0x7fff_f000
	StackSize = 1 << 20
	MmapBase  = 0x4000_0000
	mmapBase  = MmapBase
)

// StopReason reports why Run returned.
type StopReason int

const (
	StopExit       StopReason = iota // the program called exit
	StopBreakpoint                   // an ebreak was executed (PC at the ebreak)
	StopMaxInst                      // the instruction budget was exhausted
	StopTrap                         // illegal instruction or memory fault
	StopCodeWrite                    // a store landed in the armed code-watch range
)

func (r StopReason) String() string {
	switch r {
	case StopExit:
		return "exit"
	case StopBreakpoint:
		return "breakpoint"
	case StopMaxInst:
		return "max-instructions"
	case StopTrap:
		return "trap"
	case StopCodeWrite:
		return "code-write"
	}
	return "unknown"
}

// CPU is one emulated RV64GC hart plus its process state.
type CPU struct {
	X  [32]uint64 // integer registers; X[0] stays zero
	F  [32]uint64 // float registers (raw IEEE bits, NaN-boxed for .s)
	PC uint64

	FCSR uint32 // fflags [4:0], frm [7:5]

	Mem   *Memory
	Model *CostModel

	Cycles  uint64 // accumulated cost-model cycles
	Instret uint64 // retired instructions

	Exited   bool
	ExitCode int

	Stdout io.Writer
	// Stderr receives guest writes to fd 2. When nil, fd 2 falls back to
	// Stdout (the historical behaviour, which conflated the two streams).
	Stderr io.Writer

	// Dispatch selects the tiers Run may use (see Run); the zero value is
	// the default, DispatchTrace.
	Dispatch Dispatch

	// Trace, when non-nil, runs before each instruction executes. Tools
	// (and the trap-based instrumentation mode) hook here.
	Trace func(c *CPU, inst riscv.Inst)

	// TimeFn, when non-nil, overrides the cost-model-derived virtual clock
	// for clock_gettime/gettimeofday and the time CSR. The equivalence
	// oracle pins both the original and the instrumented run to one clock so
	// timing-derived state cannot differ.
	TimeFn func() uint64

	// SyscallTrace, when non-nil, observes every serviced syscall after its
	// return value is known. ret is always the value the syscall returns in
	// A0; exit syscalls never return, so they report ret == 0 (the exit
	// status is a0, as for every other syscall argument).
	SyscallTrace func(num, a0, a1, a2, ret uint64)

	// CounterFn, when non-nil, overrides reads of the cycle (0xC00) and
	// instret (0xC02) counter CSRs. Equivalence harnesses pin both runs to
	// one counter source when comparing executions whose retired-instruction
	// counts legitimately differ (DBI-translated code retires extra
	// materialization instructions, so instret is not transparent).
	CounterFn func(csr uint16) uint64

	// DBIComp, when non-nil, is the counter-compensation and scratch-CSR
	// state a dynamic-instrumentation engine installed (see dbicomp.go).
	// nil keeps native semantics: raw counters, scratch CSRs fault.
	DBIComp *DBIComp

	// Obs, when non-nil, receives emulator observability counters (retired
	// instructions, superblock-cache hits/builds/invalidations, syscall
	// counts). nil — the default — is the fast path: the dispatch loop pays
	// one pointer check and no atomics.
	Obs *Metrics

	// Virtual-clock sample trigger (see SetSampler). SamplePeriod is the
	// cycle distance between sample marks (0 disarms); SampleFn runs at the
	// first instruction-boundary state whose sample clock has reached the
	// next mark. Both dispatch engines observe the identical boundary: the
	// slow path polls every loop iteration, and the fast path refuses to
	// dispatch a superblock that could cross the pending mark mid-block
	// (the same trick that makes budget stops bit-identical). SampleFn
	// returning false defers the mark to the next boundary without
	// consuming it — the DBI sampler uses this to skip cache states that
	// sit between translation-group bounds, where the compensated clock is
	// not yet exact.
	SamplePeriod uint64
	SampleFn     func(c *CPU) bool
	sampleNext   uint64

	resValid bool
	resAddr  uint64

	brk      uint64
	mmapNext uint64

	// Decoded-instruction and superblock caches, held in code chunks that
	// are allocated on first fetch (see codeChunk): a table of chunk
	// pointers over the executable window present at load time, plus a map
	// of chunks for code outside it (e.g. trampolines mapped by dynamic
	// instrumentation).
	icBase, icEnd uint64
	icChunks      []*codeChunk
	icFar         map[uint64]*codeChunk
	// icLo/icHi bound every cached address for cheap invalidation checks.
	icLo, icHi uint64
	// icGen is bumped whenever cached code is invalidated (store into code,
	// WriteMem patch, fence.i). Superblocks record the generation they were
	// decoded under and are re-decoded when it moves (see block.go).
	icGen uint64
	// epoch moves when a host write retires blocks on their own
	// (retireBlocks). The other blocks keep their decoded ops but, as after
	// a generation bump, start a fresh profile when next dispatched or
	// looked up (restart): the successor links and hit counts gathered
	// before the write, and the traces built from them, go.
	epoch uint32
	// sideSeg is the trace segment whose side exit was just taken, for the
	// next chainNext to follow its successor link.
	sideSeg *traceSeg

	dispatchStats

	// Code-watch range [watchLo, watchHi): a guest store overlapping it
	// stops Run with StopCodeWrite *after* the store retires, with
	// CodeWrite() reporting the written span. The DBI engine arms this over
	// the pages it has translated so self-modifying code invalidates
	// translations. Both bounds zero (the default) disarms the watch; the
	// overlap test then never fires, so uninstrumented runs pay one compare
	// per store.
	watchLo, watchHi    uint64
	watchAddr, watchLen uint64
	watchHit            bool

	lastTrap error
}

// dispatchStats holds the hot-path engine counters, kept as plain fields
// (no atomics) and published to Obs at every Run return (syncObs).
type dispatchStats struct {
	// blockHits counts block-map lookups (blockAt) served by a current
	// block. chainHits counts dispatches served from a block's or trace's
	// successor cache instead; chainSevers counts cached successors dropped
	// because their generation went stale. fuseCount tallies fusions
	// applied at block build, by fusions row.
	blockHits   uint64
	chainHits   uint64
	chainSevers uint64
	fuseCount   [numFuseKinds]uint64

	// Trace-tier counters (trace.go): traces compiled, trace dispatches,
	// completed loop passes, mispredicted-branch side exits, and traces
	// severed by invalidation (at dispatch or mid-trace by an SMC store).
	traceBuilds    uint64
	traceHits      uint64
	tracePasses    uint64
	traceSideExits uint64
	traceSevers    uint64

	// tierInstret and tierCycles attribute every retired instruction and
	// cycle to the tier that retired it (tierSlow, tierBlock, tierTrace);
	// they sum to Instret and Cycles. markN and markC are Instret and
	// Cycles as of the last attribution.
	tierInstret, tierCycles [numTiers]uint64
	markN, markC            uint64
}

// Dispatch tiers, indexing dispatchStats' tier counters: the
// per-instruction path, a block's op stream, a trace's.
const (
	tierSlow = iota
	tierBlock
	tierTrace
	numTiers
)

// New creates a CPU with the ELF image loaded, the stack mapped, and the
// machine state at the ABI entry conditions.
func New(f *elfrv.File, model *CostModel) (*CPU, error) {
	if model == nil {
		model = P550()
	}
	c := &CPU{
		Mem:      NewMemory(),
		Model:    model,
		Stdout:   io.Discard,
		mmapNext: mmapBase,
		icFar:    make(map[uint64]*codeChunk),
		icLo:     ^uint64(0),
	}
	if err := c.Mem.LoadELF(f); err != nil {
		return nil, err
	}
	// Size the chunk table to the executable image.
	const maxWindow = 4 << 20
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc == 0 || s.Flags&elfrv.SHFExecinstr == 0 {
			continue
		}
		if s.Addr < lo {
			lo = s.Addr
		}
		if s.Addr+s.Size() > hi {
			hi = s.Addr + s.Size()
		}
	}
	if lo < hi && hi-lo <= maxWindow {
		c.icBase, c.icEnd = lo, hi
		c.icChunks = make([]*codeChunk, (hi-1)>>chunkBits-lo>>chunkBits+1)
	}
	c.Mem.Map(StackTop-StackSize, StackSize+pageSize)
	c.PC = f.Entry
	c.X[riscv.RegSP] = StackTop - 64 // modest arg area, 16-byte aligned
	var end uint64
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc != 0 && s.Addr+s.Size() > end {
			end = s.Addr + s.Size()
		}
	}
	c.brk = (end + pageSize - 1) &^ (pageSize - 1)
	return c, nil
}

// Trap describes an execution fault.
type Trap struct {
	PC   uint64
	Why  string
	Wrap error
}

func (t *Trap) Error() string {
	if t.Wrap != nil {
		return fmt.Sprintf("emu: trap at pc=%#x: %s: %v", t.PC, t.Why, t.Wrap)
	}
	return fmt.Sprintf("emu: trap at pc=%#x: %s", t.PC, t.Why)
}

func (t *Trap) Unwrap() error { return t.Wrap }

// LastTrap returns the trap that caused the most recent StopTrap.
func (c *CPU) LastTrap() error { return c.lastTrap }

// WriteMem writes process memory from outside the process (the debugger
// path used by ProcControl) and keeps the decoded-instruction cache
// coherent — the moral equivalent of the fence.i the kernel issues after
// ptrace POKETEXT.
func (c *CPU) WriteMem(addr uint64, data []byte) error {
	if err := c.Mem.writeHost(addr, data); err != nil {
		return err
	}
	c.invalidate(addr, uint64(len(data)), true)
	return nil
}

// ReadMem reads process memory from outside the process.
func (c *CPU) ReadMem(addr uint64, n int) ([]byte, error) {
	b := make([]byte, n)
	if err := c.Mem.ReadBytes(addr, b); err != nil {
		return nil, err
	}
	return b, nil
}

// invalidate drops cached decodes of [addr, addr+n) and the blocks built
// from them. host marks a write from outside the process (WriteMem), made
// while no stream runs.
func (c *CPU) invalidate(addr, n uint64, host bool) {
	if addr+n <= c.icLo || addr >= c.icHi {
		return
	}
	// Instructions are at even addresses and at most 4 bytes long; clear a
	// small window around the write.
	start := addr &^ 1
	if start >= 2 {
		start -= 2
	}
	dirtied := false
	for a := start; a < addr+n; a += 2 {
		if ch := c.chunk(a, false); ch != nil && ch.inst[chunkSlot(a)].Len != 0 {
			ch.inst[chunkSlot(a)] = riscv.Inst{}
			dirtied = true
		}
	}
	// A write that dirtied cached code retires every superblock: blocks
	// carry pre-decoded instruction runs, so the cheap (if coarse) way to
	// keep them coherent is a generation bump that forces re-decode on next
	// dispatch. The bump is gated on an actual cached decode being hit:
	// [icLo, icHi) is a coarse range that can cover data sitting between
	// code regions (instrumented binaries place trampolines above .bss),
	// and ordinary data stores landing there must not thrash the block
	// cache. A decoded instruction's slot stays populated for as long as
	// any block containing it is valid (fetchAt caches unconditionally and
	// every clear either bumps the generation or retires the blocks over
	// the cleared slots), so the gate cannot miss.
	//
	// A host write retires only the blocks it overlaps when none of them
	// was copied into a trace (a debugger chaining a DBI exit stub patches
	// the ebreak ending one block), so the rest of the cache survives.
	if dirtied && !(host && c.retireBlocks(start, addr+n)) {
		c.icGen++
		if c.Obs != nil {
			c.Obs.BlockInvalidations.Inc()
		}
	}
}

// retiredGen marks a block retired on its own by retireBlocks: no
// generation equals it, so every check treats the block as stale.
const retiredGen = ^uint64(0)

// retireBlocks retires the current blocks whose instructions overlap
// [lo, hi) by marking each stale, restarts every other block's profile
// (epoch), and reports true; it retires nothing and reports false when one
// of them was copied into a trace, whose staleness only the generation
// tracks. Successor links and the block map already treat a stale block as
// gone.
func (c *CPU) retireBlocks(lo, hi uint64) bool {
	from := (lo - min(lo, maxBlockLen*4)) &^ 1
	for pass := 0; pass < 2; pass++ {
		for a := from; a < hi; a += 2 {
			ch := c.chunk(a, false)
			if ch == nil {
				continue
			}
			b := ch.blk[chunkSlot(a)]
			if b == nil || b.gen != c.icGen || b.insts[len(b.insts)-1].Next() <= lo {
				continue
			}
			if b.inTrace {
				return false
			}
			if pass == 1 {
				b.gen = retiredGen
			}
		}
	}
	c.epoch++
	return true
}

// FlushICache drops all cached decodes (fence.i semantics).
// Window chunks keep their (now stale) superblocks; chunks outside the
// window are dropped whole.
func (c *CPU) FlushICache() {
	for _, ch := range c.icChunks {
		if ch != nil {
			ch.inst = [chunkSlots]riscv.Inst{}
		}
	}
	c.icFar = make(map[uint64]*codeChunk)
	c.icLo, c.icHi = ^uint64(0), 0
	c.icGen++
	if c.Obs != nil {
		c.Obs.BlockInvalidations.Inc()
	}
}

// Code-cache chunk geometry: one chunk covers chunkBytes of code, with a
// decode slot and a superblock slot per 2-byte parcel.
const (
	chunkBits  = 8
	chunkBytes = 1 << chunkBits
	chunkSlots = chunkBytes / 2
)

// codeChunk caches the decodes (Len == 0 means empty) and the superblocks
// starting in one chunkBytes-aligned span of code.
type codeChunk struct {
	inst [chunkSlots]riscv.Inst
	blk  [chunkSlots]*block
}

func chunkSlot(pc uint64) uint64 { return pc >> 1 & (chunkSlots - 1) }

// chunk returns the cache chunk covering pc, allocating it if create is
// set; otherwise nil means nothing in the chunk was ever cached.
func (c *CPU) chunk(pc uint64, create bool) *codeChunk {
	if pc >= c.icBase && pc < c.icEnd {
		ch := &c.icChunks[pc>>chunkBits-c.icBase>>chunkBits]
		if *ch == nil && create {
			*ch = new(codeChunk)
		}
		return *ch
	}
	ch := c.icFar[pc>>chunkBits]
	if ch == nil && create {
		ch = new(codeChunk)
		c.icFar[pc>>chunkBits] = ch
	}
	return ch
}

func (c *CPU) fetch() (riscv.Inst, error) { return c.fetchAt(c.PC) }

func (c *CPU) fetchAt(pc uint64) (riscv.Inst, error) {
	if ch := c.chunk(pc, false); ch != nil {
		if inst := ch.inst[chunkSlot(pc)]; inst.Len != 0 {
			return inst, nil
		}
	}
	// Instruction parcels are 2-byte aligned, so each halfword read stays
	// within one page; a 32-bit instruction is fetched as two parcels.
	var buf [4]byte
	lo, err := c.Mem.Read16(pc)
	if err != nil {
		return riscv.Inst{}, err
	}
	binary.LittleEndian.PutUint16(buf[:], lo)
	n := 2
	if buf[0]&3 == 3 {
		hi, err := c.Mem.Read16(pc + 2)
		if err != nil {
			return riscv.Inst{}, err
		}
		binary.LittleEndian.PutUint16(buf[2:], hi)
		n = 4
	}
	inst, err := riscv.Decode(buf[:n], pc)
	if err != nil {
		return inst, err
	}
	c.chunk(pc, true).inst[chunkSlot(pc)] = inst
	if pc < c.icLo {
		c.icLo = pc
	}
	if pc+4 > c.icHi {
		c.icHi = pc + 4
	}
	return inst, nil
}

// stopNone is the internal "keep running" sentinel for dispatch helpers.
const stopNone StopReason = -1

// SetSampler arms (or, with period 0, disarms) the virtual-clock sample
// trigger: fn runs at the first instruction boundary at or after every
// period-th cycle of the sample clock, counted from the current clock.
// Because marks are laid on the deterministic virtual clock, two runs of
// the same program armed at the same state fire at bit-identical times.
// fn returning false defers the pending mark to the next boundary.
func (c *CPU) SetSampler(period uint64, fn func(c *CPU) bool) {
	c.SamplePeriod = period
	c.SampleFn = fn
	if period != 0 {
		c.sampleNext = c.SampleClock() + period
	}
}

// SampleClock is the clock samples are spaced on: the raw cycle counter,
// or the compensated (native-equivalent) counter when a DBI engine has
// counter virtualization installed — so sampling under dynamic translation
// fires at the virtual times the native run would.
func (c *CPU) SampleClock() uint64 {
	if dc := c.DBIComp; dc != nil && dc.Virtualize {
		return uint64(int64(c.Cycles) - dc.ExtraCycles)
	}
	return c.Cycles
}

// samplePoll fires the sampler for every mark the clock has passed. A
// deferred mark (SampleFn false) stays pending and re-polls at the next
// boundary; the fast-path gate in Run keeps dispatch on the slow path
// until it resolves, so the accepting boundary is engine-independent.
func (c *CPU) samplePoll() {
	for c.SampleClock() >= c.sampleNext {
		if !c.SampleFn(c) {
			return
		}
		c.sampleNext += c.SamplePeriod
	}
}

// SampleDrain consumes every pending sample mark without running SampleFn
// and returns how many there were. Tools call it after Run returns
// StopExit: the exit syscall retires without another loop-top poll, so
// marks the final instructions passed are drained here and attributed to
// the exit state — keeping sum(samples)*period within one period of the
// total clock, deterministically.
func (c *CPU) SampleDrain() int {
	if c.SamplePeriod == 0 {
		return 0
	}
	n := 0
	for c.SampleClock() >= c.sampleNext {
		n++
		c.sampleNext += c.SamplePeriod
	}
	return n
}

// Dispatch selects the tiers Run may use.
type Dispatch uint8

const (
	// DispatchTrace (the default) runs superblocks and compiles hot chains
	// of them into traces.
	DispatchTrace Dispatch = iota
	// DispatchBlock runs superblocks without compiling traces (rvemu/rvdyn
	// -notrace, for A/B overhead runs).
	DispatchBlock
	// DispatchSlow forces the per-instruction interpreter loop, the
	// reference the fast tier is compared against (rvemu -slow).
	DispatchSlow
)

// Run executes until exit, breakpoint, trap, or maxInst instructions
// (0 = unlimited).
//
// Behind Run sit one fast-tier executor at two granularities and the
// per-instruction slow path. The executor (runStream, trace.go) runs an op
// stream: a superblock's (block.go), dispatched whole, or a trace's — a hot
// chain of superblocks flattened into one stream that loops whole passes
// per dispatch. Either is followed through its cached successor links, so
// loop-heavy code never re-probes the block map. The fast tier is used
// whenever nothing needs per-instruction visibility. The slow path is used
// when a Trace hook is installed (tools, oracle lockstep stepping), under
// DispatchSlow, or when the remaining instruction budget is smaller than
// the next block or trace pass — so budget exhaustion stops at exactly the
// same instruction on every tier. Code a DBI engine translated into its
// code cache (see DBIComp) runs through the same tiers: dbi.acc and its
// lookup stubs' scratch-CSR ops are ordinary ops and its dbi.jt ends a
// stream.
func (c *CPU) Run(maxInst uint64) StopReason {
	if c.Obs != nil {
		// Sync the hot-path counters into obs on return; the architectural
		// and plain-field counters are the single source of truth, so the
		// hot loop never touches an atomic.
		defer c.syncObs(c.Instret, c.dispatchStats)()
	}
	c.markN, c.markC = c.Instret, c.Cycles
	budget := maxInst
	// chained holds the next block resolved through the successor cache of
	// the block or trace that just retired; nil means the next dispatch
	// must go through blockAt.
	var chained *block
	for {
		if c.Exited {
			return StopExit
		}
		if c.SamplePeriod != 0 && c.SampleClock() >= c.sampleNext {
			c.samplePoll()
		}
		if maxInst != 0 && budget == 0 {
			return StopMaxInst
		}
		if c.Trace == nil && c.Dispatch != DispatchSlow {
			b := chained
			chained = nil
			if b == nil {
				b = c.blockAt(c.PC)
			} else if b.epoch != c.epoch {
				c.restart(b)
			}
			if b != nil {
				s := &b.stream
				if t := b.trc; t != nil && c.Dispatch == DispatchTrace {
					if t.gen != c.icGen {
						b.trc = nil
						c.traceSevers++
					} else if c.fits(t, budget, maxInst != 0) {
						s = t
						c.traceHits++
					}
				}
				if s.hot || c.fits(s, budget, maxInst != 0) {
					retired, stop := c.runStream(s, budget, maxInst != 0)
					if s.hot {
						c.attribute(tierTrace)
					} else {
						c.attribute(tierBlock)
					}
					if stop != stopNone {
						return stop
					}
					budget -= retired
					if c.watchHit {
						// A watched store retired the prefix through a
						// stopNone exit; surface it here with the PC
						// already past the store.
						c.watchHit = false
						return StopCodeWrite
					}
					chained = c.chainNext(s)
					continue
				}
			}
		}
		budget--
		r := c.stepOne()
		c.attribute(tierSlow)
		if r != stopNone {
			return r
		}
	}
}

// attribute charges what retired since the last mark to tier.
func (c *CPU) attribute(tier int) {
	c.tierInstret[tier] += c.Instret - c.markN
	c.tierCycles[tier] += c.Cycles - c.markC
	c.markN, c.markC = c.Instret, c.Cycles
}

// fits reports whether the dispatch gates admit one pass of s: the budget
// covers it and even its worst case cannot cross the pending sample mark.
func (c *CPU) fits(s *stream, budget uint64, limited bool) bool {
	return (!limited || budget >= s.passN) &&
		(c.SamplePeriod == 0 || c.SampleClock()+s.maxCost < c.sampleNext)
}

// syncObs snapshots the hot-path counters at Run entry and returns the
// deferred function that publishes the deltas to the obs registry.
func (c *CPU) syncObs(instret uint64, d dispatchStats) func() {
	return func() {
		m := c.Obs
		m.Instructions.Add(c.Instret - instret)
		m.BlockHits.Add(c.blockHits - d.blockHits)
		m.ChainHits.Add(c.chainHits - d.chainHits)
		m.ChainSevers.Add(c.chainSevers - d.chainSevers)
		m.TraceBuilds.Add(c.traceBuilds - d.traceBuilds)
		m.TraceHits.Add(c.traceHits - d.traceHits)
		m.TracePasses.Add(c.tracePasses - d.tracePasses)
		m.TraceSideExits.Add(c.traceSideExits - d.traceSideExits)
		m.TraceSevers.Add(c.traceSevers - d.traceSevers)
		for k := 0; k < numFuseKinds; k++ {
			m.Fused[k].Add(c.fuseCount[k] - d.fuseCount[k])
		}
		for k := 0; k < numTiers; k++ {
			m.TierInstret[k].Add(c.tierInstret[k] - d.tierInstret[k])
			m.TierCycles[k].Add(c.tierCycles[k] - d.tierCycles[k])
		}
	}
}

// stepOne fetches, traces, and executes a single instruction — the
// per-instruction slow path. It returns stopNone to keep running.
func (c *CPU) stepOne() StopReason {
	inst, err := c.fetch()
	if err != nil {
		c.lastTrap = &Trap{PC: c.PC, Why: "fetch", Wrap: err}
		return StopTrap
	}
	if c.Trace != nil {
		c.Trace(c, inst)
	}
	if inst.Mn == riscv.MnEBREAK {
		return StopBreakpoint
	}
	if stop, err := c.exec(&inst); err != nil {
		return c.trap(&inst, err)
	} else if stop {
		return StopExit
	}
	if c.watchHit {
		c.watchHit = false
		return StopCodeWrite
	}
	return stopNone
}

// trap records a fault executing in, at the current PC.
func (c *CPU) trap(in *riscv.Inst, err error) StopReason {
	c.lastTrap = &Trap{PC: c.PC, Why: "execute " + in.String(), Wrap: err}
	return StopTrap
}

// Step executes exactly one instruction (used by the software single-step
// fallback in ProcControl when it steps off a breakpoint).
func (c *CPU) Step() StopReason {
	return c.Run(1)
}

func (c *CPU) setX(r riscv.Reg, v uint64) {
	if r != riscv.X0 {
		c.X[r] = v
	}
}

// exec executes one non-ebreak instruction. It returns stop=true when the
// program exited via syscall. Control transfer and system instructions are
// handled here; everything straight-line is in execStraight so the
// fast-tier executor can reuse it (trace.go).
func (c *CPU) exec(inst *riscv.Inst) (stop bool, err error) {
	cost := c.Model.Cost(inst.Mn)
	next := inst.Next()
	rs1 := c.X[inst.Rs1&31]
	rs2 := c.X[inst.Rs2&31]

	switch inst.Mn {
	// ----- control transfer -----
	case riscv.MnJAL:
		c.setX(inst.Rd, next)
		next = inst.Addr + uint64(inst.Imm)
	case riscv.MnJALR:
		t := (rs1 + uint64(inst.Imm)) &^ 1
		c.setX(inst.Rd, next)
		next = t
	case riscv.MnDBIJT:
		t, ok := c.dbiJT(inst.Imm)
		if !ok {
			return false, c.dbiJTFault(inst)
		}
		next = t
	case riscv.MnBEQ, riscv.MnBNE, riscv.MnBLT, riscv.MnBGE, riscv.MnBLTU, riscv.MnBGEU:
		if branchTaken(inst.Mn, rs1, rs2) {
			next = inst.Addr + uint64(inst.Imm)
			cost += c.Model.BranchTakenPenalty
		}

	// ----- system -----
	case riscv.MnFENCEI:
		c.FlushICache()
	case riscv.MnECALL:
		exited, e := c.syscall()
		if e != nil {
			return false, e
		}
		if exited {
			c.PC = next
			c.Cycles += cost
			c.Instret++
			return true, nil
		}
	case riscv.MnCSRRW, riscv.MnCSRRS, riscv.MnCSRRC,
		riscv.MnCSRRWI, riscv.MnCSRRSI, riscv.MnCSRRCI:
		if e := c.csrOp(inst); e != nil {
			return false, e
		}

	default:
		if e := c.execStraight(inst); e != nil {
			return false, e
		}
	}

	c.PC = next
	c.Cycles += cost
	c.Instret++
	return false, nil
}

// branchTaken evaluates a conditional-branch condition on two operands:
// the one copy of branch semantics, for exec and the fast-tier executor.
func branchTaken(mn riscv.Mnemonic, rs1, rs2 uint64) bool {
	switch mn {
	case riscv.MnBEQ:
		return rs1 == rs2
	case riscv.MnBNE:
		return rs1 != rs2
	case riscv.MnBLT:
		return int64(rs1) < int64(rs2)
	case riscv.MnBGE:
		return int64(rs1) >= int64(rs2)
	case riscv.MnBLTU:
		return rs1 < rs2
	case riscv.MnBGEU:
		return rs1 >= rs2
	}
	return false
}

// dbiJT retires an inline-lookup transfer (xdbi dbi.jt, delta index imm)
// and returns its target: the translated cache address the lookup stub
// stashed in scratch CSR 0x7C3. It applies the stub's compensation delta
// and counts the hash hit. It reports false, with no effect, when the
// dbi.jt is invalid (no DBI-attached CPU, or an unallocated delta);
// dbiJTFault says why. Every dispatch tier retires dbi.jt through here, so
// its semantics live in one place.
func (c *CPU) dbiJT(imm int64) (uint64, bool) {
	dc := c.DBIComp
	if dc == nil || !dc.apply(imm+2048) {
		return 0, false
	}
	dc.IBLHits++
	return dc.Scratch[3], true
}

// dbiJTFault is the error for a dbi.jt that dbiJT refused.
func (c *CPU) dbiJTFault(inst *riscv.Inst) error {
	if c.DBIComp == nil {
		return fmt.Errorf("emu: dbi.jt outside DBI-attached CPU at %#x", inst.Addr)
	}
	return fmt.Errorf("emu: dbi.jt with unallocated delta %d at %#x", inst.Imm, inst.Addr)
}

// execStraight executes one straight-line (non-control-flow, non-system)
// instruction: only register and memory state change, never the PC or the
// counters. Both tiers funnel through it — the slow path via exec's
// default case, the fast-tier executor for every mnemonic without a
// dedicated op kind (otStraight).
func (c *CPU) execStraight(inst *riscv.Inst) error {
	mn := inst.Mn
	rs1 := c.X[inst.Rs1&31]
	rs2 := c.X[inst.Rs2&31]

	switch mn {
	// ----- Xdbi (DBI code-cache internals) -----
	case riscv.MnDBIACC:
		dc := c.DBIComp
		if dc == nil {
			return fmt.Errorf("emu: dbi.acc outside DBI-attached CPU at %#x", inst.Addr)
		}
		if !dc.apply(inst.Imm + 2048) {
			return fmt.Errorf("emu: dbi.acc with unallocated delta %d at %#x", inst.Imm, inst.Addr)
		}

	// ----- RV64I integer computation -----
	case riscv.MnLUI:
		c.setX(inst.Rd, uint64(inst.Imm<<12))
	case riscv.MnAUIPC:
		c.setX(inst.Rd, inst.Addr+uint64(inst.Imm<<12))
	case riscv.MnADDI:
		c.setX(inst.Rd, rs1+uint64(inst.Imm))
	case riscv.MnSLTI:
		c.setX(inst.Rd, b2u(int64(rs1) < inst.Imm))
	case riscv.MnSLTIU:
		c.setX(inst.Rd, b2u(rs1 < uint64(inst.Imm)))
	case riscv.MnXORI:
		c.setX(inst.Rd, rs1^uint64(inst.Imm))
	case riscv.MnORI:
		c.setX(inst.Rd, rs1|uint64(inst.Imm))
	case riscv.MnANDI:
		c.setX(inst.Rd, rs1&uint64(inst.Imm))
	case riscv.MnSLLI:
		c.setX(inst.Rd, rs1<<uint(inst.Imm))
	case riscv.MnSRLI:
		c.setX(inst.Rd, rs1>>uint(inst.Imm))
	case riscv.MnSRAI:
		c.setX(inst.Rd, uint64(int64(rs1)>>uint(inst.Imm)))
	case riscv.MnADD:
		c.setX(inst.Rd, rs1+rs2)
	case riscv.MnSUB:
		c.setX(inst.Rd, rs1-rs2)
	case riscv.MnSLL:
		c.setX(inst.Rd, rs1<<(rs2&63))
	case riscv.MnSLT:
		c.setX(inst.Rd, b2u(int64(rs1) < int64(rs2)))
	case riscv.MnSLTU:
		c.setX(inst.Rd, b2u(rs1 < rs2))
	case riscv.MnXOR:
		c.setX(inst.Rd, rs1^rs2)
	case riscv.MnSRL:
		c.setX(inst.Rd, rs1>>(rs2&63))
	case riscv.MnSRA:
		c.setX(inst.Rd, uint64(int64(rs1)>>(rs2&63)))
	case riscv.MnOR:
		c.setX(inst.Rd, rs1|rs2)
	case riscv.MnAND:
		c.setX(inst.Rd, rs1&rs2)
	case riscv.MnADDIW:
		c.setX(inst.Rd, sext32(uint32(rs1)+uint32(inst.Imm)))
	case riscv.MnSLLIW:
		c.setX(inst.Rd, sext32(uint32(rs1)<<uint(inst.Imm)))
	case riscv.MnSRLIW:
		c.setX(inst.Rd, sext32(uint32(rs1)>>uint(inst.Imm)))
	case riscv.MnSRAIW:
		c.setX(inst.Rd, uint64(int64(int32(rs1)>>uint(inst.Imm))))
	case riscv.MnADDW:
		c.setX(inst.Rd, sext32(uint32(rs1)+uint32(rs2)))
	case riscv.MnSUBW:
		c.setX(inst.Rd, sext32(uint32(rs1)-uint32(rs2)))
	case riscv.MnSLLW:
		c.setX(inst.Rd, sext32(uint32(rs1)<<(rs2&31)))
	case riscv.MnSRLW:
		c.setX(inst.Rd, sext32(uint32(rs1)>>(rs2&31)))
	case riscv.MnSRAW:
		c.setX(inst.Rd, uint64(int64(int32(rs1)>>(rs2&31))))

	// ----- loads and stores -----
	case riscv.MnLB:
		v, e := c.Mem.Read8(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(int64(int8(v))))
	case riscv.MnLH:
		v, e := c.Mem.Read16(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(int64(int16(v))))
	case riscv.MnLW:
		v, e := c.Mem.Read32(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, sext32(v))
	case riscv.MnLD:
		v, e := c.Mem.Read64(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, v)
	case riscv.MnLBU:
		v, e := c.Mem.Read8(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(v))
	case riscv.MnLHU:
		v, e := c.Mem.Read16(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(v))
	case riscv.MnLWU:
		v, e := c.Mem.Read32(rs1 + uint64(inst.Imm))
		if e != nil {
			return e
		}
		c.setX(inst.Rd, uint64(v))
	case riscv.MnSB:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 1, c.Mem.Write8(rs1+uint64(inst.Imm), uint8(rs2))); e != nil {
			return e
		}
	case riscv.MnSH:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 2, c.Mem.Write16(rs1+uint64(inst.Imm), uint16(rs2))); e != nil {
			return e
		}
	case riscv.MnSW:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 4, c.Mem.Write32(rs1+uint64(inst.Imm), uint32(rs2))); e != nil {
			return e
		}
	case riscv.MnSD:
		if e := c.storeCheck(rs1+uint64(inst.Imm), 8, c.Mem.Write64(rs1+uint64(inst.Imm), rs2)); e != nil {
			return e
		}

	// ----- M extension -----
	case riscv.MnMUL:
		c.setX(inst.Rd, rs1*rs2)
	case riscv.MnMULH:
		hi, _ := mulh64(int64(rs1), int64(rs2))
		c.setX(inst.Rd, uint64(hi))
	case riscv.MnMULHU:
		hi, _ := bits.Mul64(rs1, rs2)
		c.setX(inst.Rd, hi)
	case riscv.MnMULHSU:
		c.setX(inst.Rd, mulhsu64(int64(rs1), rs2))
	case riscv.MnDIV:
		c.setX(inst.Rd, uint64(sdiv64(int64(rs1), int64(rs2))))
	case riscv.MnDIVU:
		if rs2 == 0 {
			c.setX(inst.Rd, ^uint64(0))
		} else {
			c.setX(inst.Rd, rs1/rs2)
		}
	case riscv.MnREM:
		c.setX(inst.Rd, uint64(srem64(int64(rs1), int64(rs2))))
	case riscv.MnREMU:
		if rs2 == 0 {
			c.setX(inst.Rd, rs1)
		} else {
			c.setX(inst.Rd, rs1%rs2)
		}
	case riscv.MnMULW:
		c.setX(inst.Rd, sext32(uint32(rs1)*uint32(rs2)))
	case riscv.MnDIVW:
		c.setX(inst.Rd, uint64(int64(sdiv32(int32(rs1), int32(rs2)))))
	case riscv.MnDIVUW:
		if uint32(rs2) == 0 {
			c.setX(inst.Rd, ^uint64(0))
		} else {
			c.setX(inst.Rd, sext32(uint32(rs1)/uint32(rs2)))
		}
	case riscv.MnREMW:
		c.setX(inst.Rd, uint64(int64(srem32(int32(rs1), int32(rs2)))))
	case riscv.MnREMUW:
		if uint32(rs2) == 0 {
			c.setX(inst.Rd, sext32(uint32(rs1)))
		} else {
			c.setX(inst.Rd, sext32(uint32(rs1)%uint32(rs2)))
		}

	// ----- A extension -----
	case riscv.MnLRW:
		v, e := c.Mem.Read32(rs1)
		if e != nil {
			return e
		}
		c.resValid, c.resAddr = true, rs1
		c.setX(inst.Rd, sext32(v))
	case riscv.MnLRD:
		v, e := c.Mem.Read64(rs1)
		if e != nil {
			return e
		}
		c.resValid, c.resAddr = true, rs1
		c.setX(inst.Rd, v)
	case riscv.MnSCW:
		if c.resValid && c.resAddr == rs1 {
			if e := c.storeCheck(rs1, 4, c.Mem.Write32(rs1, uint32(rs2))); e != nil {
				return e
			}
			c.setX(inst.Rd, 0)
		} else {
			c.setX(inst.Rd, 1)
		}
		c.resValid = false
	case riscv.MnSCD:
		if c.resValid && c.resAddr == rs1 {
			if e := c.storeCheck(rs1, 8, c.Mem.Write64(rs1, rs2)); e != nil {
				return e
			}
			c.setX(inst.Rd, 0)
		} else {
			c.setX(inst.Rd, 1)
		}
		c.resValid = false
	case riscv.MnAMOSWAPW, riscv.MnAMOADDW, riscv.MnAMOXORW, riscv.MnAMOANDW,
		riscv.MnAMOORW, riscv.MnAMOMINW, riscv.MnAMOMAXW, riscv.MnAMOMINUW, riscv.MnAMOMAXUW:
		old, e := c.Mem.Read32(rs1)
		if e != nil {
			return e
		}
		nv := amo32(mn, old, uint32(rs2))
		if e := c.storeCheck(rs1, 4, c.Mem.Write32(rs1, nv)); e != nil {
			return e
		}
		c.setX(inst.Rd, sext32(old))
	case riscv.MnAMOSWAPD, riscv.MnAMOADDD, riscv.MnAMOXORD, riscv.MnAMOANDD,
		riscv.MnAMOORD, riscv.MnAMOMIND, riscv.MnAMOMAXD, riscv.MnAMOMINUD, riscv.MnAMOMAXUD:
		old, e := c.Mem.Read64(rs1)
		if e != nil {
			return e
		}
		nv := amo64(mn, old, rs2)
		if e := c.storeCheck(rs1, 8, c.Mem.Write64(rs1, nv)); e != nil {
			return e
		}
		c.setX(inst.Rd, old)

	// ----- fences -----
	case riscv.MnFENCE:
		// no-op: the emulator is sequentially consistent

	default:
		if c.execExt(*inst, rs1, rs2) {
			break
		}
		// Floating point (F and D extensions) in float.go.
		handled, e := c.execFloat(*inst)
		if e != nil {
			return e
		}
		if !handled {
			// Format a copy so the pointer never escapes: the hot path must
			// not heap-allocate its instruction.
			v := *inst
			return fmt.Errorf("emu: unimplemented instruction %v", v)
		}
	}

	return nil
}

// storeCheck funnels store errors and keeps the icache coherent for stores
// into cached code (self-modifying code still works, at a small cost).
func (c *CPU) storeCheck(addr uint64, width uint64, err error) error {
	if err != nil {
		return err
	}
	if addr < c.icHi && addr+width > c.icLo {
		c.invalidate(addr, width, false)
	}
	if addr < c.watchHi && addr+width > c.watchLo {
		if c.watchHit {
			// One instruction can trip twice before dispatch notices (a
			// syscall writing both words of a timespec); widen the recorded
			// span to cover both stores.
			lo, hi := c.watchAddr, c.watchAddr+c.watchLen
			if addr < lo {
				lo = addr
			}
			if addr+width > hi {
				hi = addr + width
			}
			c.watchAddr, c.watchLen = lo, hi-lo
		} else {
			c.watchHit = true
			c.watchAddr, c.watchLen = addr, width
		}
	}
	return nil
}

// SetCodeWatch arms (or, with lo == hi == 0, disarms) the code-write watch
// range. A guest store overlapping [lo, hi) retires normally and then stops
// Run with StopCodeWrite; CodeWrite reports the span. Debugger-path writes
// (WriteMem) do not trip the watch — only guest stores do.
func (c *CPU) SetCodeWatch(lo, hi uint64) {
	c.watchLo, c.watchHi = lo, hi
	c.watchHit = false
}

// CodeWatch returns the armed code-write watch range.
func (c *CPU) CodeWatch() (lo, hi uint64) { return c.watchLo, c.watchHi }

// CodeWrite returns the address span of the store that caused the most
// recent StopCodeWrite.
func (c *CPU) CodeWrite() (addr, n uint64) { return c.watchAddr, c.watchLen }

func (c *CPU) csrOp(inst *riscv.Inst) error {
	csr := inst.CSR
	var old uint64
	switch csr {
	case 0xC00: // cycle
		old = c.Cycles
		if dc := c.DBIComp; dc != nil && dc.Virtualize {
			old = uint64(int64(c.Cycles) - dc.ExtraCycles)
		}
		if c.CounterFn != nil {
			old = c.CounterFn(csr)
		}
	case 0xC01: // time
		old = c.VirtualNanos()
	case 0xC02: // instret
		old = c.Instret
		if dc := c.DBIComp; dc != nil && dc.Virtualize {
			old = uint64(int64(c.Instret) - dc.ExtraInstret)
		}
		if c.CounterFn != nil {
			old = c.CounterFn(csr)
		}
	case 0x001: // fflags
		old = uint64(c.FCSR & 0x1f)
	case 0x002: // frm
		old = uint64(c.FCSR >> 5 & 7)
	case 0x003: // fcsr
		old = uint64(c.FCSR & 0xff)
	default:
		if !isDBIScratchCSR(csr) || c.DBIComp == nil {
			return fmt.Errorf("emu: access to unimplemented CSR %#x", csr)
		}
		old = c.DBIComp.Scratch[csr-dbiScratchBase] // DBI scratch (custom read/write)
	}
	var src uint64
	switch inst.Mn {
	case riscv.MnCSRRW, riscv.MnCSRRS, riscv.MnCSRRC:
		src = c.X[inst.Rs1&31]
	default:
		src = uint64(inst.Imm)
	}
	var nv uint64
	write := true
	switch inst.Mn {
	case riscv.MnCSRRW, riscv.MnCSRRWI:
		nv = src
	case riscv.MnCSRRS, riscv.MnCSRRSI:
		nv = old | src
		write = src != 0
	case riscv.MnCSRRC, riscv.MnCSRRCI:
		nv = old &^ src
		write = src != 0
	}
	if write {
		switch csr {
		case 0x001:
			c.FCSR = c.FCSR&^0x1f | uint32(nv)&0x1f
		case 0x002:
			c.FCSR = c.FCSR&^0xe0 | uint32(nv&7)<<5
		case 0x003:
			c.FCSR = uint32(nv) & 0xff
		case 0xC00, 0xC01, 0xC02:
			// counters are read-only; writes are ignored
		default: // DBI scratch, checked above
			c.DBIComp.Scratch[csr-dbiScratchBase] = nv
		}
	}
	c.setX(inst.Rd, old)
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func mulh64(a, b int64) (hi int64, lo uint64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		h -= uint64(b)
	}
	if b < 0 {
		h -= uint64(a)
	}
	return int64(h), l
}

func mulhsu64(a int64, b uint64) uint64 {
	h, _ := bits.Mul64(uint64(a), b)
	if a < 0 {
		h -= b
	}
	return h
}

func sdiv64(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == -1<<63 && b == -1:
		return a
	}
	return a / b
}

func srem64(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == -1<<63 && b == -1:
		return 0
	}
	return a % b
}

func sdiv32(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == -1<<31 && b == -1:
		return a
	}
	return a / b
}

func srem32(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == -1<<31 && b == -1:
		return 0
	}
	return a % b
}

func amo32(mn riscv.Mnemonic, old, src uint32) uint32 {
	switch mn {
	case riscv.MnAMOSWAPW:
		return src
	case riscv.MnAMOADDW:
		return old + src
	case riscv.MnAMOXORW:
		return old ^ src
	case riscv.MnAMOANDW:
		return old & src
	case riscv.MnAMOORW:
		return old | src
	case riscv.MnAMOMINW:
		if int32(src) < int32(old) {
			return src
		}
		return old
	case riscv.MnAMOMAXW:
		if int32(src) > int32(old) {
			return src
		}
		return old
	case riscv.MnAMOMINUW:
		if src < old {
			return src
		}
		return old
	case riscv.MnAMOMAXUW:
		if src > old {
			return src
		}
		return old
	}
	return old
}

func amo64(mn riscv.Mnemonic, old, src uint64) uint64 {
	switch mn {
	case riscv.MnAMOSWAPD:
		return src
	case riscv.MnAMOADDD:
		return old + src
	case riscv.MnAMOXORD:
		return old ^ src
	case riscv.MnAMOANDD:
		return old & src
	case riscv.MnAMOORD:
		return old | src
	case riscv.MnAMOMIND:
		if int64(src) < int64(old) {
			return src
		}
		return old
	case riscv.MnAMOMAXD:
		if int64(src) > int64(old) {
			return src
		}
		return old
	case riscv.MnAMOMINUD:
		if src < old {
			return src
		}
		return old
	case riscv.MnAMOMAXUD:
		if src > old {
			return src
		}
		return old
	}
	return old
}
