package patch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/par"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
)

// Rewriter performs static binary rewriting (Figure 1, left path): open a
// binary, attach snippets to points, and produce a new executable whose
// instrumented functions run relocated, instrumented copies from the patch
// area.
//
// Rewrite runs as a four-phase pipeline: snippet generation, liveness, and
// relocation planning fan out across Jobs workers (every per-function plan
// is independent); patch-area layout is a serial prefix sum in ascending
// entry order; encoding fans out again; and the final splice into the output
// image is serial. Because layout depends only on the sorted entry order and
// the base-independent plan sizes, the output ELF is byte-identical for
// every worker count.
type Rewriter struct {
	st  *symtab.Symtab
	cfg *parse.CFG

	mode codegen.Mode
	arch riscv.ExtSet

	// Jobs bounds the parallel plan and encode phases (<= 0: GOMAXPROCS,
	// 1: fully serial).
	Jobs int

	vars    []*snippet.Var
	varBase uint64
	varNext uint64

	// requests, grouped by function entry.
	requests     map[uint64][]request
	edgeRequests map[uint64][]edgeRequest

	// liveness memoizes per-function dataflow results for the parallel
	// planning workers. By default every Rewriter gets a private cache;
	// SetLivenessCache shares one across Rewriters of the same binary (the
	// server's warm path).
	liveness *LivenessCache

	// Results, for inspection by tests and the EXPERIMENTS harness.
	Patches []PatchRecord
	// Phases records wall-clock time spent in each Rewrite phase.
	Phases PhaseTimes

	// Obs, when non-nil, receives patch counters: one patch.kind.<kind> count
	// per entry patch installed (which rung of the jump ladder fit) and
	// relocation size counters (patch.reloc.orig_bytes / code_bytes /
	// growth_bytes). Nil disables collection.
	Obs *obs.Registry
	// Trace, when non-nil, records each Rewrite phase as a span on TraceTID.
	Trace    *obs.Tracer
	TraceTID int
}

// PhaseTimes reports where one Rewrite spent its time.
type PhaseTimes struct {
	Plan   time.Duration // parallel: codegen + liveness + relocation planning
	Layout time.Duration // serial: patch-area base assignment
	Encode time.Duration // parallel: instruction encoding at assigned bases
	Splice time.Duration // serial: entry patches, table repointing, assembly
}

type request struct {
	point snippet.Point
	sn    snippet.Snippet
}

type edgeRequest struct {
	point snippet.EdgePoint
	sn    snippet.Snippet
}

// PatchRecord describes one entry patch the rewriter installed.
type PatchRecord struct {
	Func     string
	Kind     PatchKind
	From, To uint64
}

// NewRewriter wraps an analyzed binary. The mode selects the register
// allocation strategy for generated snippets (the paper's optimization is
// codegen.ModeDeadRegister).
func NewRewriter(st *symtab.Symtab, cfg *parse.CFG, mode codegen.Mode) *Rewriter {
	// Variables live in a fresh data section placed far above the existing
	// image; the address is fixed now so snippet code can be generated
	// eagerly.
	end := imageEnd(st)
	varBase := (end + 0xfff) &^ 0xfff
	varBase += 0x200000
	return &Rewriter{
		st: st, cfg: cfg, mode: mode,
		arch:         st.Extensions,
		varBase:      varBase,
		varNext:      varBase,
		requests:     map[uint64][]request{},
		edgeRequests: map[uint64][]edgeRequest{},
		liveness:     NewLivenessCache(),
	}
}

// LivenessCache memoizes per-function liveness results, keyed by function
// entry address. One cache may be shared by any number of Rewriters over the
// *same* analyzed binary (entries are keyed by address, so sharing across
// different binaries would collide); LivenessResult values are immutable
// once computed, and the double-checked locking keeps concurrent fills
// canonical (see TestRewriterLivenessCacheRace).
type LivenessCache struct {
	mu sync.Mutex
	m  map[uint64]*dataflow.LivenessResult
}

// NewLivenessCache returns an empty cache.
func NewLivenessCache() *LivenessCache {
	return &LivenessCache{m: map[uint64]*dataflow.LivenessResult{}}
}

// For returns the cached liveness of fn, computing it on first use.
func (c *LivenessCache) For(fn *parse.Function) *dataflow.LivenessResult {
	c.mu.Lock()
	lv, ok := c.m[fn.Entry]
	c.mu.Unlock()
	if ok {
		return lv
	}
	// Computed outside the lock: liveness is pure, so two workers racing on
	// the same function at worst duplicate work, never corrupt the cache.
	lv = dataflow.Liveness(fn)
	c.mu.Lock()
	if prior, ok := c.m[fn.Entry]; ok {
		lv = prior
	} else {
		c.m[fn.Entry] = lv
	}
	c.mu.Unlock()
	return lv
}

// Len returns the number of memoized functions.
func (c *LivenessCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// SetLivenessCache replaces the rewriter's private liveness cache, letting
// repeated rewrites of the same binary skip the dataflow analysis. Call it
// before the first InsertSnippet/Rewrite; the cache must belong to the same
// binary this rewriter analyzes.
func (rw *Rewriter) SetLivenessCache(c *LivenessCache) {
	if c != nil {
		rw.liveness = c
	}
}

func imageEnd(st *symtab.Symtab) uint64 {
	var end uint64
	for _, r := range st.Regions {
		if r.Addr+r.Size > end {
			end = r.Addr + r.Size
		}
	}
	return end
}

// NewVar allocates an instrumentation variable in the rewritten binary's
// data section.
func (rw *Rewriter) NewVar(name string, width int) *snippet.Var {
	if width != 1 && width != 2 && width != 4 && width != 8 {
		width = 8
	}
	// 8-byte alignment keeps loads simple.
	rw.varNext = (rw.varNext + 7) &^ 7
	v := &snippet.Var{Name: name, Width: width, Addr: rw.varNext}
	rw.varNext += uint64(width)
	rw.vars = append(rw.vars, v)
	return v
}

// InsertSnippet schedules sn to run at the point. Code generation happens
// immediately, with dead registers from liveness at the point when the mode
// allows.
func (rw *Rewriter) InsertSnippet(pt snippet.Point, sn snippet.Snippet) error {
	if pt.Func == nil {
		return fmt.Errorf("patch: point %v has no function", pt)
	}
	rw.requests[pt.Func.Entry] = append(rw.requests[pt.Func.Entry], request{pt, sn})
	return nil
}

// InsertEdgeSnippet schedules sn to run whenever the CFG edge is traversed.
func (rw *Rewriter) InsertEdgeSnippet(pt snippet.EdgePoint, sn snippet.Snippet) error {
	if pt.Func == nil || pt.Block == nil {
		return fmt.Errorf("patch: edge point %v is incomplete", pt)
	}
	rw.edgeRequests[pt.Func.Entry] = append(rw.edgeRequests[pt.Func.Entry], edgeRequest{pt, sn})
	return nil
}

func (rw *Rewriter) livenessFor(fn *parse.Function) *dataflow.LivenessResult {
	return rw.liveness.For(fn)
}

// generate lowers one request to instructions.
func (rw *Rewriter) generate(req request) ([]riscv.Inst, error) {
	var dead []riscv.Reg
	if rw.mode == codegen.ModeDeadRegister {
		dead = rw.livenessFor(req.point.Func).DeadScratchX(req.point.Addr)
	}
	res, err := codegen.Generate(req.sn, codegen.Options{
		Arch: rw.arch, Mode: rw.mode, DeadRegs: dead,
	})
	if err != nil {
		return nil, fmt.Errorf("patch: generating snippet at %v: %w", req.point, err)
	}
	return res.Insts, nil
}

// funcPlan carries one function's instrumentation through the pipeline
// phases: plan (parallel) fills plan/room/scratch, layout (serial) fills
// base, encode (parallel) fills rel.
type funcPlan struct {
	entry   uint64
	fn      *parse.Function
	plan    *RelocPlan
	room    uint64    // bytes available at the entry for the jump patch
	scratch riscv.Reg // dead register for the auipc+jalr rung, or RegNone
	base    uint64
	rel     *Relocation
}

// planFunc runs the per-function half of the pipeline: generate all snippet
// code, pick the entry-patch scratch register, and build the
// base-independent relocation plan.
func (rw *Rewriter) planFunc(entry uint64) (*funcPlan, error) {
	fn, ok := rw.cfg.FuncAt(entry)
	if !ok {
		return nil, fmt.Errorf("patch: no parsed function at %#x", entry)
	}
	var insertions []Insertion
	for _, req := range rw.requests[entry] {
		code, err := rw.generate(req)
		if err != nil {
			return nil, err
		}
		insertions = append(insertions, Insertion{Addr: req.point.Addr, Code: code})
	}
	var edgeIns []EdgeInsertion
	for _, req := range rw.edgeRequests[entry] {
		// Scratch registers for edge code come from the edge's
		// destination: the source terminator has already read its
		// operands when the edge code runs.
		var dead []riscv.Reg
		if rw.mode == codegen.ModeDeadRegister {
			dead = rw.livenessFor(fn).DeadScratchX(req.point.EdgeDest())
		}
		res, err := codegen.Generate(req.sn, codegen.Options{
			Arch: rw.arch, Mode: rw.mode, DeadRegs: dead,
		})
		if err != nil {
			return nil, fmt.Errorf("patch: generating edge snippet at %v: %w", req.point, err)
		}
		edgeIns = append(edgeIns, EdgeInsertion{
			Block: req.point.Block, Kind: req.point.Kind, Code: res.Insts,
		})
	}
	plan, err := PlanRelocation(fn, rw.st, insertions, edgeIns, rw.arch)
	if err != nil {
		return nil, err
	}
	lo, hi := fn.Extent()
	if lo != fn.Entry {
		return nil, fmt.Errorf("patch: function %s extent starts at %#x, not its entry", fn.Name, lo)
	}
	fp := &funcPlan{entry: entry, fn: fn, plan: plan, room: hi - fn.Entry, scratch: riscv.RegNone}
	if dead := rw.livenessFor(fn).DeadScratchX(fn.Entry); len(dead) > 0 {
		fp.scratch = dead[0]
	}
	return fp, nil
}

// workers resolves the effective worker count.
func (rw *Rewriter) workers() int {
	if rw.Jobs > 0 {
		return rw.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PlanSet is the reusable phase-1 product of a Rewrite: every requested
// function's generated snippet code, scratch-register choice, and
// base-independent relocation plan. A PlanSet may be cached and replayed
// through RewriteWithPlans by any Rewriter over the same analyzed binary
// with the same requests and variable allocations (the rvdynd server's
// content-addressed cache keys guarantee exactly that). Replay never
// mutates the set, so concurrent replays of one cached PlanSet are safe.
type PlanSet struct {
	plans []*funcPlan
}

// Funcs returns the number of planned functions.
func (ps *PlanSet) Funcs() int { return len(ps.plans) }

// Size returns the total patch-area bytes the plans will occupy.
func (ps *PlanSet) Size() uint64 {
	var n uint64
	for _, p := range ps.plans {
		n += p.plan.Size
	}
	return n
}

// Footprint returns the heap bytes the set retains: each plan's code,
// address pairs and fixups plus the plan headers. The parsed functions the
// plans point to belong to the analysis and are not counted.
func (ps *PlanSet) Footprint() uint64 {
	n := uint64(cap(ps.plans)) * uint64(unsafe.Sizeof(&funcPlan{}))
	for _, fp := range ps.plans {
		p := fp.plan
		n += uint64(unsafe.Sizeof(*fp)+unsafe.Sizeof(*p)) + uint64(cap(p.code)) +
			uint64(cap(p.addrs))*uint64(unsafe.Sizeof(addrOff{})) +
			uint64(cap(p.fixups))*uint64(unsafe.Sizeof(fixup{}))
	}
	return n
}

// Plan runs phase 1 of the rewrite — snippet generation, liveness, and
// relocation planning, fanned out across the worker pool — and returns the
// base-independent result. Rewrite is Plan followed by RewriteWithPlans.
func (rw *Rewriter) Plan() (*PlanSet, error) {
	// Deterministic function order.
	entrySet := map[uint64]bool{}
	for e := range rw.requests {
		entrySet[e] = true
	}
	for e := range rw.edgeRequests {
		entrySet[e] = true
	}
	entries := make([]uint64, 0, len(entrySet))
	for e := range entrySet {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })

	// Snippet generation, liveness, and relocation planning for each
	// function are independent of every other function; only immutable
	// analysis results (symtab, CFG) and the mutex-guarded liveness cache
	// are shared.
	t := obs.StartTimer(rw.Trace, rw.TraceTID, "patch.plan", "patch")
	plans := make([]*funcPlan, len(entries))
	errs := make([]error, len(entries))
	par.ForEach(rw.workers(), len(entries), func(_, i int) {
		plans[i], errs[i] = rw.planFunc(entries[i])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	rw.Phases.Plan = t.Stop()
	return &PlanSet{plans: plans}, nil
}

// Rewrite produces the instrumented ELF image.
func (rw *Rewriter) Rewrite() (*elfrv.File, error) {
	ps, err := rw.Plan()
	if err != nil {
		return nil, err
	}
	return rw.RewriteWithPlans(ps)
}

// RewriteWithPlans runs phases 2–4 (layout, encode, splice) over an
// already-built PlanSet — the warm path when the plans came from a cache.
// The set must have been planned against the same binary image with the
// same request set and variable allocations as this rewriter; layout and
// encode work on copies, leaving ps untouched.
func (rw *Rewriter) RewriteWithPlans(ps *PlanSet) (*elfrv.File, error) {
	orig := rw.st.File

	// Clone sections so the original file object stays pristine.
	out := &elfrv.File{Entry: orig.Entry, Type: orig.Type, Flags: orig.Flags}
	secData := map[string][]byte{}
	for _, s := range orig.Sections {
		ns := &elfrv.Section{
			Name: s.Name, Type: s.Type, Flags: s.Flags, Addr: s.Addr,
			MemSize: s.MemSize, Align: s.Align,
		}
		if s.Data != nil {
			ns.Data = append([]byte(nil), s.Data...)
			secData[s.Name] = ns.Data
		}
		out.Sections = append(out.Sections, ns)
	}
	out.Symbols = append(out.Symbols, orig.Symbols...)

	trampBase := (imageEnd(rw.st) + 0xfff) &^ 0xfff
	trampBase += 0x1000
	trampCode := make([]byte, 0, ps.Size())

	// Work on shallow copies: layout and encode fill base and rel, and a
	// cached PlanSet must stay immutable for concurrent replays.
	plans := make([]*funcPlan, len(ps.plans))
	for i, p := range ps.plans {
		cp := *p
		cp.base, cp.rel = 0, nil
		plans[i] = &cp
	}
	errs := make([]error, len(plans))

	// Phase 2 — layout (serial). Bases come from a prefix sum over plan
	// sizes in ascending entry order, so the patch-area layout depends only
	// on the request set, never on worker scheduling.
	t := obs.StartTimer(rw.Trace, rw.TraceTID, "patch.layout", "patch")
	next := trampBase
	for _, p := range plans {
		p.base = next
		next += p.plan.Size
	}
	rw.Phases.Layout = t.Stop()

	// Phase 3 — encode (parallel). Every plan now knows its base.
	t = obs.StartTimer(rw.Trace, rw.TraceTID, "patch.encode", "patch")
	par.ForEach(rw.workers(), len(plans), func(_, i int) {
		plans[i].rel, errs[i] = plans[i].plan.Encode(plans[i].base)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	rw.Phases.Encode = t.Stop()

	// Phase 4 — splice (serial, in entry order): entry patches, jump-table
	// repointing, code concatenation, symbol emission.
	t = obs.StartTimer(rw.Trace, rw.TraceTID, "patch.splice", "patch")
	defer func() { rw.Phases.Splice = t.Stop() }()
	for _, p := range plans {
		fn, rel := p.fn, p.rel

		// Entry patch: redirect the original entry to the relocated copy,
		// choosing the cheapest jump that fits in the function's extent.
		newEntry := rel.AddrMap[fn.Entry]
		kind, bytes, err := JumpPatch(fn.Entry, newEntry, p.room, rw.arch, p.scratch, false)
		if err != nil {
			return nil, fmt.Errorf("patch: function %s: %w", fn.Name, err)
		}
		if err := rw.patchBytes(secData, fn.Entry, bytes); err != nil {
			return nil, err
		}
		rw.Patches = append(rw.Patches, PatchRecord{
			Func: fn.Name, Kind: kind, From: fn.Entry, To: newEntry,
		})
		if rw.Obs != nil {
			rw.Obs.Counter("patch.kind." + kind.String()).Inc()
			rw.Obs.Counter("patch.reloc.orig_bytes").Add(p.room)
			rw.Obs.Counter("patch.reloc.code_bytes").Add(uint64(len(rel.Code)))
			if g := uint64(len(rel.Code)); g > p.room {
				rw.Obs.Counter("patch.reloc.growth_bytes").Add(g - p.room)
			}
		}

		// Repoint jump-table slots at the relocated blocks.
		for _, b := range fn.Blocks {
			if b.Purpose != parse.PurposeJumpTable || b.TableCount == 0 {
				continue
			}
			for i := uint64(0); i < b.TableCount; i++ {
				slot := b.TableBase + i*b.TableStride
				old, ok := rw.st.ReadMem(slot, b.TableWidth)
				if !ok {
					return nil, fmt.Errorf("patch: cannot read jump table slot %#x", slot)
				}
				nt, ok := rel.AddrMap[old&^1]
				if !ok {
					return nil, fmt.Errorf("patch: jump table slot %#x target %#x not relocated", slot, old)
				}
				var buf [8]byte
				for j := 0; j < b.TableWidth; j++ {
					buf[j] = byte(nt >> (8 * j))
				}
				if err := rw.patchBytes(secData, slot, buf[:b.TableWidth]); err != nil {
					return nil, err
				}
			}
		}

		trampCode = append(trampCode, rel.Code...)
		out.Symbols = append(out.Symbols, elfrv.Symbol{
			Name: fn.Name + ".dyninst", Value: rel.NewBase,
			Size: uint64(len(rel.Code)), Bind: elfrv.STBLocal,
			Type: elfrv.STTFunc, Section: ".dyninst.text",
		})
	}

	if len(trampCode) > 0 {
		out.Sections = append(out.Sections, &elfrv.Section{
			Name: ".dyninst.text", Type: elfrv.SHTProgbits,
			Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr,
			Addr:  trampBase, Data: trampCode, Align: 4,
		})
	}
	if rw.varNext > rw.varBase {
		out.Sections = append(out.Sections, &elfrv.Section{
			Name: ".dyninst.data", Type: elfrv.SHTProgbits,
			Flags: elfrv.SHFAlloc | elfrv.SHFWrite,
			Addr:  rw.varBase, Data: make([]byte, rw.varNext-rw.varBase), Align: 8,
		})
		for _, v := range rw.vars {
			out.Symbols = append(out.Symbols, elfrv.Symbol{
				Name: v.Name, Value: v.Addr, Size: uint64(v.Width),
				Bind: elfrv.STBLocal, Type: elfrv.STTObject, Section: ".dyninst.data",
			})
		}
	}
	return out, nil
}

// patchBytes writes into the cloned section data covering addr.
func (rw *Rewriter) patchBytes(secData map[string][]byte, addr uint64, b []byte) error {
	for _, r := range rw.st.Regions {
		if addr >= r.Addr && addr+uint64(len(b)) <= r.Addr+r.Size {
			data, ok := secData[r.Name]
			if !ok {
				return fmt.Errorf("patch: section %s has no initialized data to patch", r.Name)
			}
			copy(data[addr-r.Addr:], b)
			return nil
		}
	}
	return fmt.Errorf("patch: address %#x not inside any section", addr)
}
