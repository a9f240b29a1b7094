// Package dbi is a dynamic binary instrumentation engine in the MAMBO-V /
// DynamoRIO mold, layered over the process-control API: instead of the
// static rewrite-then-run flow, it attaches to a *running* process, copies
// each basic block into a code cache the first time it is about to execute,
// weaves attached probe snippets into the copies, and chains translated
// blocks so hot paths never leave the cache. Direct edges chain into jal
// jumps; indirect edges (jalr) resolve through an inline hash-table lookup
// stub (see ibl.go) and reach the engine only on a miss. Stores into
// translated-from bytes invalidate the affected translations (via the
// emulator's code-write watch), which is what lets DBI handle
// self-modifying and JIT'd code — the scenarios static rewriting
// structurally cannot.
//
// Architectural transparency contract: at every translation-group boundary
// the guest's registers, memory, and syscall trace are bit-identical to the
// native run — auipc results and jal/jalr link values are materialized as
// their original-program values, so the process only ever observes original
// addresses. The cycle and instret counters are virtualized: every
// translated group carries a compensation delta (dbi.acc/dbi.jt, see
// internal/riscv/xdbi.go and emu.DBIComp) recording its divergence from the
// original instruction stream, so rdcycle/rdinstret reads inside the guest
// return the values the native run would see. Time-derived state is pinned
// by emu.TimeFn exactly as in the static-instrumentation oracle.
package dbi

import (
	"fmt"

	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/proc"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
)

// Options configures an engine.
type Options struct {
	// CacheBase/CacheSize place the code cache; zero auto-places it above
	// the image (clear of the static rewriter's patch and var areas) with a
	// 512 KiB cache — small enough that every intra-cache jal reaches.
	CacheBase uint64
	CacheSize uint64
	// Arch is the mutatee's extension set for probe lowering (zero: RV64GC).
	Arch riscv.ExtSet
	// Mode selects probe register allocation (dead-register vs spill-always).
	// The engine has no liveness information, so ModeDeadRegister lowers
	// with an empty dead set — i.e. spills — making the two modes equivalent
	// here; the knob exists for symmetry with the static rewriter.
	Mode codegen.Mode
	// NoCounterVirt disables counter virtualization: guest rdcycle/rdinstret
	// reads expose the raw (translation-inflated) counters instead of the
	// compensated native-identical values. The compensation state is still
	// installed and maintained — the inline-lookup stubs need the scratch
	// CSRs regardless — only the CSR read path changes.
	NoCounterVirt bool
	// Obs receives the emu.dbi.* counters; the zero value discards them.
	Obs Metrics
}

const (
	defaultCacheSize = 512 << 10
	varRegionSize    = 0x10000
)

// Engine is one attached DBI session over a live process.
type Engine struct {
	p    *proc.Process
	f    *elfrv.File
	opts Options
	obs  Metrics

	cacheBase, cacheEnd uint64
	cacheNext           uint64

	trans map[uint64]*translation // original block start → live translation
	exits map[uint64]*exitStub    // cache stub addr → descriptor

	probes map[uint64]*probeCode // original addr → lowered probe

	varBase, varNext uint64
	varMapped        bool

	// comp is the counter-compensation state installed on the CPU;
	// deltaIdx interns immutable deltas (index into comp.Deltas).
	comp     *emu.DBIComp
	deltaIdx map[emu.CompDelta]int

	// iblBase is the inline-lookup table (above the var region); ibcBase
	// is the per-site inline-cache region above it, ibcNext its slot
	// cursor. ibcStubs maps a slot index (the dbi.jt site tag) back to
	// its stub; jtSeen is the drain cursor into comp.JTProfN.
	iblBase  uint64
	ibcBase  uint64
	ibcNext  uint64
	ibcStubs []*exitStub
	jtSeen   uint64

	// pubHits/pubIBCHits are the high-water marks of comp.IBLHits and
	// comp.IBCHits already published to the obs counters (the CPU
	// increments them; the engine diffs).
	pubHits    uint64
	pubIBCHits uint64

	// drain is a probe-invalidated translation the PC was inside of when it
	// died: its source bytes are unchanged, so the stale copy runs to its
	// next exit rather than being realigned mid-group. Cleared when the PC
	// is next observed outside it.
	drain *translation

	detached bool
}

// probeCode is the lowered form of every snippet attached at one address.
type probeCode struct {
	code  []byte       // concatenated 4-byte encodings
	insts []riscv.Inst // for instruction count and cost accounting
}

// Attach creates a DBI engine over p, which may be anywhere in its
// execution — stopped at entry right after Launch, or mid-run after an
// earlier native Continue. Nothing is translated until the engine runs.
// If the CPU already carries compensation state from an earlier session
// (attach → detach → attach), its accumulated totals are preserved so
// counter reads stay native-identical across sessions.
func Attach(p *proc.Process, f *elfrv.File, opts Options) (*Engine, error) {
	if p.Exited() {
		return nil, fmt.Errorf("dbi: process has exited")
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = defaultCacheSize
	}
	if opts.CacheSize > 1<<20 {
		// Chaining patches stubs with jal (±1 MiB reach); a larger cache
		// could place a target out of reach of its stub.
		return nil, fmt.Errorf("dbi: cache size %d exceeds jal chaining reach (1 MiB)", opts.CacheSize)
	}
	if opts.CacheBase == 0 {
		var end uint64
		for _, s := range f.Sections {
			if s.Flags&elfrv.SHFAlloc != 0 && s.Addr+s.Size() > end {
				end = s.Addr + s.Size()
			}
		}
		// Above the static rewriter's patch area (image end + 4 KiB) and its
		// var region (+2 MiB), so both mechanisms coexist on one process.
		opts.CacheBase = (end+0xfff)&^0xfff + 0x400000
	}
	e := &Engine{
		p: p, f: f, opts: opts, obs: opts.Obs,
		cacheBase: opts.CacheBase,
		cacheEnd:  opts.CacheBase + opts.CacheSize,
		cacheNext: opts.CacheBase,
		trans:     map[uint64]*translation{},
		exits:     map[uint64]*exitStub{},
		probes:    map[uint64]*probeCode{},
		varBase:   opts.CacheBase + opts.CacheSize,
		deltaIdx:  map[emu.CompDelta]int{},
	}
	e.iblBase = e.varBase + varRegionSize
	e.ibcBase = e.iblBase + iblRegionSize
	e.ibcNext = e.ibcBase
	cpu := p.CPU()
	comp := cpu.DBIComp
	if comp == nil {
		comp = &emu.DBIComp{}
		cpu.DBIComp = comp
	}
	comp.Virtualize = !opts.NoCounterVirt
	// Any deltas referenced by a previous session's (now unreachable) cache
	// are dead; the accumulated Extra* totals carry over untouched.
	comp.Deltas = comp.Deltas[:0]
	e.comp = comp
	e.pubHits = comp.IBLHits
	e.pubIBCHits = comp.IBCHits
	p.MapRegion(e.cacheBase, opts.CacheSize)
	p.MapRegion(e.iblBase, iblRegionSize)
	p.MapRegion(e.ibcBase, ibcRegionSize)
	if err := e.iblZero(); err != nil {
		return nil, err
	}
	if err := e.ibcZero(); err != nil {
		return nil, err
	}
	return e, nil
}

// Process returns the underlying controlled process.
func (e *Engine) Process() *proc.Process { return e.p }

// Comp returns the live compensation state (tools and tests read the
// accumulated divergence and the inline-lookup hit count from it).
func (e *Engine) Comp() *emu.DBIComp { return e.comp }

// CacheRange returns the code-cache span [lo, hi). PCs inside it execute
// translated copies; everything outside is original program code.
func (e *Engine) CacheRange() (lo, hi uint64) { return e.cacheBase, e.cacheEnd }

// OrigPC maps a cache-resident PC sitting exactly on a translation-group
// bound back to the original-program address the group was translated
// from. It reports false for PCs between bounds (mid-group expansions,
// probe splices, exit and lookup stubs) — states where the compensated
// counters are not yet exact and no unique original address exists. The
// sampling profiler keys on exactly this property: a sample deferred at a
// non-bound state fires at the next bound, whose architectural state and
// compensated clock match the native run's bit-for-bit.
func (e *Engine) OrigPC(pc uint64) (uint64, bool) {
	for _, t := range e.trans {
		if pc >= t.cache && pc < t.cacheEnd {
			return t.mapBack(pc)
		}
	}
	if d := e.drain; d != nil && pc >= d.cache && pc < d.cacheEnd {
		return d.mapBack(pc)
	}
	return 0, false
}

// Probe attaches sn at fn's entry point. Snippets are lowered once through
// the same CodeGen layer the static rewriter uses and woven into every
// future translation of a block starting or passing through the point;
// translations already covering the point are invalidated so the probe
// takes effect immediately, even mid-run.
func (e *Engine) Probe(fn *parse.Function, sn snippet.Snippet) error {
	return e.ProbeAt(fn.Entry, sn)
}

// ProbeAt attaches sn at an arbitrary original instruction address — a
// function entry or any instruction point inside a block; the translator
// splices the probe in at the owning translation group.
func (e *Engine) ProbeAt(addr uint64, sn snippet.Snippet) error {
	if e.detached {
		return fmt.Errorf("dbi: engine is detached")
	}
	res, err := codegen.Generate(sn, codegen.Options{Arch: e.opts.Arch, Mode: e.opts.Mode})
	if err != nil {
		return err
	}
	var code []byte
	for _, in := range res.Insts {
		b, err := riscv.EncodeBytes(in)
		if err != nil {
			return fmt.Errorf("dbi: encode probe inst %v: %w", in, err)
		}
		code = append(code, b...)
	}
	pr := e.probes[addr]
	if pr == nil {
		pr = &probeCode{}
		e.probes[addr] = pr
	}
	pr.code = append(pr.code, code...)
	pr.insts = append(pr.insts, res.Insts...)
	e.obs.Probes.Inc()
	// Drop translations that already copied the point, so the probe is
	// woven in on the next execution.
	return e.invalidateRange(addr, 1, false)
}

// RemoveProbeAt detaches every probe at addr and patches its body out of
// all live translations in place — the probe instructions become nops and
// the splice's compensation delta is updated to account for them — without
// invalidating or retranslating anything. It refuses when the PC sits
// inside one of the splices (the pass in flight would retire a mix of
// probe and nop against a delta describing neither).
func (e *Engine) RemoveProbeAt(addr uint64) error {
	if e.detached {
		return fmt.Errorf("dbi: engine is detached")
	}
	if _, ok := e.probes[addr]; !ok {
		return fmt.Errorf("dbi: no probe at %#x", addr)
	}
	pc := e.p.PC()
	for _, t := range e.trans {
		for _, sp := range t.splices {
			if sp.orig == addr && pc > sp.cacheStart && pc <= sp.cacheEnd {
				return fmt.Errorf("dbi: probe at %#x is executing (pc %#x inside its splice)", addr, pc)
			}
		}
	}
	delete(e.probes, addr)
	nop := riscv.MustEncode(riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.X0, Rs1: riscv.X0})
	nopB := []byte{byte(nop), byte(nop >> 8), byte(nop >> 16), byte(nop >> 24)}
	nopCost := e.cost(riscv.MnADDI)
	accCost := e.cost(riscv.MnDBIACC)
	for _, t := range e.trans {
		for _, sp := range t.splices {
			if sp.orig != addr {
				continue
			}
			for a := sp.cacheStart; a < sp.cacheEnd; a += 4 {
				if err := e.p.WriteMem(a, nopB); err != nil {
					return err
				}
			}
			e.comp.Deltas[sp.deltaIdx] = emu.CompDelta{
				Insts:  sp.nInsts + 1,
				Cycles: sp.nInsts*nopCost + accCost,
			}
		}
	}
	e.obs.ProbeRemovals.Inc()
	return nil
}

// NewVar allocates an instrumentation variable in fresh process memory
// (above the code cache, outside every watched and hashed region).
func (e *Engine) NewVar(name string, width int) *snippet.Var {
	if !e.varMapped {
		e.p.MapRegion(e.varBase, varRegionSize)
		e.varMapped = true
		e.varNext = e.varBase
	}
	e.varNext = (e.varNext + 7) &^ 7
	v := &snippet.Var{Name: name, Width: width, Addr: e.varNext}
	e.varNext += 8
	return v
}

// ReadVar reads an instrumentation variable's current value.
func (e *Engine) ReadVar(v *snippet.Var) (uint64, error) {
	b, err := e.p.ReadMem(v.Addr, 8)
	if err != nil {
		return 0, err
	}
	var out uint64
	for i := 7; i >= 0; i-- {
		out = out<<8 | uint64(b[i])
	}
	switch v.Width {
	case 1:
		out &= 0xff
	case 2:
		out &= 0xffff
	case 4:
		out &= 0xffffffff
	}
	return out, nil
}

// Continue resumes the process under translation until exit, a program
// breakpoint (reported with its original address), or a trap.
func (e *Engine) Continue() (proc.Event, error) { return e.run(0) }

// ContinueBudget is Continue with an instruction budget (0 = unlimited).
// The budget counts instructions the hart actually retires — translated
// copies, probe code and all — so it measures true dynamic-mode cost. A
// budget stop can land mid-translation-group; Detach realigns.
func (e *Engine) ContinueBudget(maxInst uint64) (proc.Event, error) { return e.run(maxInst) }

func (e *Engine) run(budget uint64) (proc.Event, error) {
	if e.detached {
		return proc.Event{}, fmt.Errorf("dbi: engine is detached")
	}
	cpu := e.p.CPU()
	start := cpu.Instret
	for {
		if e.p.Exited() {
			e.publishHits()
			return proc.Event{Kind: proc.EventExit, ExitCode: e.p.ExitCode()}, nil
		}
		// Redirect the PC into the cache when it sits on an original
		// address; untranslatable targets run native and trap identically.
		pc := e.p.PC()
		if e.drain != nil && (pc < e.drain.cache || pc >= e.drain.cacheEnd) {
			// The stale fragment finished draining; its span no longer
			// needs watching.
			e.drain = nil
			e.rearmWatch()
		}
		if pc < e.cacheBase || pc >= e.cacheEnd {
			t, err := e.lookup(pc)
			if err != nil {
				return proc.Event{}, err
			}
			if t != nil {
				e.p.SetPC(t.cache)
			} else {
				e.obs.Deopts.Inc()
			}
		}
		rem := uint64(0)
		if budget != 0 {
			used := cpu.Instret - start
			if used >= budget {
				return proc.Event{Kind: proc.EventBudget}, nil
			}
			rem = budget - used
		}
		ev, err := e.p.ContinueBudget(rem)
		e.publishHits()
		if err != nil {
			return proc.Event{}, err
		}
		// Every re-entry drains the CPU-side target profile, so inline
		// caches re-steer even when the guest never misses again (budget
		// slices from a sampler are the steady-state drain cadence).
		if err := e.drainJTProf(); err != nil {
			return proc.Event{}, err
		}
		switch ev.Kind {
		case proc.EventCodeWrite:
			// The process stored into bytes some translation was built
			// from: drop the stale copies and resume.
			if err := e.invalidateRange(ev.Addr, ev.Len, true); err != nil {
				return proc.Event{}, err
			}
		case proc.EventBreakpoint:
			st := e.exits[ev.Addr]
			if st == nil {
				// An ebreak the engine did not place (native deopt path, or
				// a tool's breakpoint): report as-is.
				return ev, nil
			}
			done, out, err := e.handleExit(st)
			if err != nil {
				return proc.Event{}, err
			}
			if done {
				return out, nil
			}
		default:
			return ev, nil
		}
	}
}

// publishHits forwards the CPU-side lookup hit counts (incremented by
// dbi.jt retirements) to the obs counters. A hash-table hit also counts as
// an inline-cache miss: the site's IBC compare ran and failed on the way
// to the probe.
func (e *Engine) publishHits() {
	if e.comp == nil {
		return
	}
	if d := e.comp.IBLHits - e.pubHits; d != 0 {
		e.obs.IBLHits.Add(d)
		e.obs.IBCMisses.Add(d)
		e.pubHits = e.comp.IBLHits
	}
	if d := e.comp.IBCHits - e.pubIBCHits; d != 0 {
		e.obs.IBCHits.Add(d)
		e.pubIBCHits = e.comp.IBCHits
	}
}

// drainJTProf consumes the CPU-side (site, cache-target) samples recorded
// since the last drain and feeds them to each site's inline-cache policy.
// Samples whose target translation has since been invalidated (the cache
// address no longer names a live entry) are dropped; if the ring lapped
// the cursor, the lost oldest samples are simply forgotten.
func (e *Engine) drainJTProf() error {
	dc := e.comp
	n := dc.JTProfN
	if n == e.jtSeen {
		return nil
	}
	start := e.jtSeen
	if n-start > emu.JTProfSize {
		start = n - emu.JTProfSize
	}
	e.jtSeen = n
	var byCache map[uint64]*translation
	for i := start; i < n; i++ {
		s := dc.JTProf[i%emu.JTProfSize]
		if int(s.Site) >= len(e.ibcStubs) {
			continue
		}
		st := e.ibcStubs[s.Site]
		if st == nil {
			continue
		}
		if byCache == nil {
			byCache = make(map[uint64]*translation, len(e.trans))
			for _, t := range e.trans {
				byCache[t.cache] = t
			}
		}
		t := byCache[s.Cache]
		if t == nil {
			continue
		}
		if err := e.ibcNote(st, t.orig, t); err != nil {
			return err
		}
	}
	return nil
}

// lookup returns the live translation starting at orig, translating on
// first use. (nil, nil) means untranslatable — deopt.
func (e *Engine) lookup(orig uint64) (*translation, error) {
	if t := e.trans[orig]; t != nil {
		return t, nil
	}
	return e.translate(orig)
}

// handleExit services one cache exit stub.
func (e *Engine) handleExit(st *exitStub) (done bool, ev proc.Event, err error) {
	switch st.kind {
	case stubBreak:
		// The program's own ebreak: report it at its original address.
		e.p.SetPC(st.target)
		return true, proc.Event{Kind: proc.EventBreakpoint, Addr: st.target}, nil

	case stubDirect:
		// The stub's accumulator pre-accounted the chained jal that did
		// not retire this time (the engine services the exit instead).
		e.comp.ExtraInstret--
		e.comp.ExtraCycles -= e.cost(riscv.MnJAL)
		t := e.trans[st.target]
		if t != nil {
			e.obs.ChainHits.Inc()
		} else if t, err = e.translate(st.target); err != nil {
			return false, proc.Event{}, err
		}
		if t == nil {
			// Untranslatable target: run it natively; the fetch traps with
			// the identical PC and fault the native run would report.
			e.obs.Deopts.Inc()
			e.p.SetPC(st.target)
			return false, proc.Event{}, nil
		}
		if err := e.chain(st, t); err != nil {
			return false, proc.Event{}, err
		}
		e.p.SetPC(t.cache)
		return false, proc.Event{}, nil

	case stubIndirect:
		// Inline-lookup miss: the stub already computed the original
		// target into scratch CSR 0x7C3 and committed the link register;
		// account the stub path, resolve, and refill the table so the
		// next jump to this target hits in-cache.
		e.obs.IndirectExits.Inc()
		e.obs.IBLMisses.Inc()
		if st.ibcSlot != 0 {
			e.obs.IBCMisses.Inc()
		}
		e.comp.ExtraInstret += st.missFix.Insts
		e.comp.ExtraCycles += st.missFix.Cycles
		tgt := e.comp.Scratch[3]
		t, err := e.lookup(tgt)
		if err != nil {
			return false, proc.Event{}, err
		}
		if t == nil {
			e.obs.Deopts.Inc()
			e.p.SetPC(tgt)
			return false, proc.Event{}, nil
		}
		if err := e.iblInsert(tgt, t); err != nil {
			return false, proc.Event{}, err
		}
		if err := e.ibcNote(st, tgt, t); err != nil {
			return false, proc.Event{}, err
		}
		e.p.SetPC(t.cache)
		return false, proc.Event{}, nil
	}
	return false, proc.Event{}, fmt.Errorf("dbi: unknown stub kind %d", st.kind)
}

// realignStub maps the PC parked on an exit stub back to original code,
// settling the stub's compensation: a direct stub's accumulator assumed a
// chained jal that will not retire; an indirect (lookup-miss) stub owes its
// path fixup and holds the original target in scratch CSR 0x7C3.
func (e *Engine) realignStub(st *exitStub) {
	switch st.kind {
	case stubDirect:
		e.comp.ExtraInstret--
		e.comp.ExtraCycles -= e.cost(riscv.MnJAL)
		e.p.SetPC(st.resume)
	case stubBreak:
		e.p.SetPC(st.target)
	case stubIndirect:
		e.comp.ExtraInstret += st.missFix.Insts
		e.comp.ExtraCycles += st.missFix.Cycles
		e.p.SetPC(e.comp.Scratch[3])
	}
}

// invalidateRange drops every translation whose source bytes overlap
// [addr, addr+n), restores their incoming chain patches to exit stubs, and
// severs their inline-lookup entries. When the current PC sits inside a
// dropped translation it is mapped back to the original address (group
// bounds, stub slots, and stub accumulators all realign exactly); a
// probe-sourced invalidation (codeWrite false) that catches the PC
// mid-group instead leaves the stale fragment to drain — its source bytes
// are unchanged, so the copy stays correct through its next exit.
func (e *Engine) invalidateRange(addr, n uint64, codeWrite bool) error {
	var dropped []*translation
	for start, t := range e.trans {
		if t.orig < addr+n && t.origEnd > addr {
			t.dead = true
			delete(e.trans, start)
			dropped = append(dropped, t)
		}
	}
	// A draining stale fragment whose source was just overwritten must be
	// abandoned too — its copy no longer matches the bytes.
	pc := e.p.PC()
	if codeWrite && e.drain != nil && e.drain.orig < addr+n && e.drain.origEnd > addr &&
		pc >= e.drain.cache && pc < e.drain.cacheEnd {
		dropped = append(dropped, e.drain)
		e.drain = nil
	}
	if len(dropped) == 0 {
		return nil
	}
	e.obs.Invalidations.Add(uint64(len(dropped)))
	for _, t := range dropped {
		for _, sa := range t.incoming {
			if err := e.unchain(sa); err != nil {
				return err
			}
		}
		if err := e.iblSever(t); err != nil {
			return err
		}
		if err := e.ibcSever(t); err != nil {
			return err
		}
	}
	for _, t := range dropped {
		if pc < t.cache || pc >= t.cacheEnd {
			continue
		}
		if orig, ok := t.mapBack(pc); ok {
			e.p.SetPC(orig)
			break
		}
		if !codeWrite {
			// Probe-sourced drop with the PC mid-fragment (inside a group,
			// a lookup stub, or parked on an exit stub): the source bytes
			// are unchanged and the fragment's exits stay registered, so
			// the stale copy drains to its next exit with exact
			// compensation — accumulators and stub handlers settle their
			// own deltas as they retire or get serviced.
			e.drain = t
			break
		}
		// A code write stops with the PC at the store's group end: the next
		// group bound (handled above), a direct stub's accumulator, or its
		// slot — never mid-group.
		if st := e.exits[pc]; st != nil && st.from == t {
			e.realignStub(st)
			break
		}
		if st := e.exits[pc+4]; st != nil && st.from == t && st.accAddr == pc {
			// Parked on a bare-edge stub's accumulator (not yet retired):
			// nothing of the stub is accounted — resume at the target.
			e.p.SetPC(st.resume)
			break
		}
		return fmt.Errorf("dbi: pc %#x mid-group in invalidated translation of %#x", pc, t.orig)
	}
	e.rearmWatch()
	return nil
}

// rearmWatch sets the CPU code-write watch to the union of every live
// translation's source span (plus a draining fragment's — its stale copy
// must still be abandoned if its source changes under it). Coarse — stores
// to untranslated bytes between two spans trip a no-op invalidation — but
// one compare per store.
func (e *Engine) rearmWatch() {
	var lo, hi uint64
	span := func(t *translation) {
		if lo == hi {
			lo, hi = t.orig, t.origEnd
			return
		}
		if t.orig < lo {
			lo = t.orig
		}
		if t.origEnd > hi {
			hi = t.origEnd
		}
	}
	for _, t := range e.trans {
		span(t)
	}
	if e.drain != nil {
		span(e.drain)
	}
	e.p.CPU().SetCodeWatch(lo, hi)
}

// flushAll resets the whole cache (capacity or delta-table exhaustion):
// every translation dies, every stub is forgotten, the lookup table is
// zeroed, the compensation-delta table truncates (no surviving code
// references it), and the allocation cursor rewinds. Called with the PC
// either outside the cache or parked on a stub whose handler immediately
// repoints it, so no live PC survives into the stale region.
func (e *Engine) flushAll() error {
	for _, t := range e.trans {
		t.dead = true
	}
	e.trans = map[uint64]*translation{}
	e.exits = map[uint64]*exitStub{}
	e.cacheNext = e.cacheBase
	e.comp.Deltas = e.comp.Deltas[:0]
	e.deltaIdx = map[emu.CompDelta]int{}
	e.drain = nil
	if err := e.iblZero(); err != nil {
		return err
	}
	if err := e.ibcZero(); err != nil {
		return err
	}
	// Undrained profile samples reference the stubs that just died (and
	// slot indices the rewound cursor will reuse): discard the backlog.
	e.jtSeen = e.comp.JTProfN
	e.obs.Flushes.Inc()
	e.rearmWatch()
	return nil
}

// Detach disconnects the engine: the PC is mapped back to its original
// address (single-stepping to the next realignment point when a budget stop
// parked it mid-translation-group or inside an inline-lookup stub), the
// code watch is disarmed, and the process continues natively —
// uninstrumented — from exactly equivalent architectural state. The cache
// region stays mapped but unreachable; the compensation state stays on the
// CPU, frozen, so counter reads remain native-identical after detach (and
// a later re-Attach carries the totals forward).
func (e *Engine) Detach() error {
	if e.detached {
		return nil
	}
	cpu := e.p.CPU()
	defer func() {
		e.publishHits()
		cpu.SetCodeWatch(0, 0)
		e.trans = map[uint64]*translation{}
		e.exits = map[uint64]*exitStub{}
		e.probes = map[uint64]*probeCode{}
		e.drain = nil
		e.detached = true
	}()
	// Worst case: a budget stop at the start of a stale draining fragment —
	// up to a whole translated block (64 groups with probe and
	// materialization expansions) executes before a realignment point.
	for i := 0; i < 1024; i++ {
		pc := e.p.PC()
		if pc < e.cacheBase || pc >= e.cacheEnd {
			return nil
		}
		if e.p.Exited() {
			// The exit retired in the cache (possibly on one of the steps
			// below): realign the PC it left behind like any other.
			return e.realignExit(pc)
		}
		for _, t := range e.trans {
			if pc < t.cache || pc >= t.cacheEnd {
				continue
			}
			if orig, ok := t.mapBack(pc); ok {
				e.p.SetPC(orig)
				return nil
			}
		}
		if d := e.drain; d != nil && pc >= d.cache && pc < d.cacheEnd {
			// A probe-invalidated fragment's source bytes are unchanged, so
			// its bounds still map back exactly.
			if orig, ok := d.mapBack(pc); ok {
				e.p.SetPC(orig)
				return nil
			}
		}
		if st := e.exits[pc]; st != nil {
			e.realignStub(st)
			return nil
		}
		// Mid-group (or inside a lookup stub): retire one more instruction
		// and retry — accumulators settle their deltas as they retire, so
		// compensation stays exact at whichever boundary we land on.
		ev, err := e.p.ContinueBudget(1)
		if err != nil {
			return err
		}
		switch ev.Kind {
		case proc.EventCodeWrite:
			if err := e.invalidateRange(ev.Addr, ev.Len, true); err != nil {
				return err
			}
		case proc.EventBreakpoint:
			if st := e.exits[ev.Addr]; st != nil {
				e.realignStub(st)
				return nil
			}
			return nil
		}
	}
	return fmt.Errorf("dbi: detach could not realign pc %#x to an instruction boundary", e.p.PC())
}

// realignExit maps the cache PC an exit syscall left behind to the original
// address a native exit leaves. Translation copies ecall verbatim and never
// ends a group on it, so the PC sits one past the copy: on the next group's
// bound, or on the accumulator of the block-cap stub that continues at the
// next original address.
func (e *Engine) realignExit(pc uint64) error {
	if orig, ok := e.OrigPC(pc); ok {
		e.p.SetPC(orig)
		return nil
	}
	if st := e.exits[pc+4]; st != nil && st.kind == stubDirect && st.accAddr == pc {
		e.p.SetPC(st.resume)
		return nil
	}
	return fmt.Errorf("dbi: exit left pc %#x off a translation-group bound", pc)
}
