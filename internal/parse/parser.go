package parse

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"

	"rvdyn/internal/par"
	"rvdyn/internal/riscv"
	"rvdyn/internal/semantics"
	"rvdyn/internal/symtab"
)

// Options configures parsing.
type Options struct {
	// Workers bounds the parallel parse (0 = GOMAXPROCS, 1 = serial). The
	// paper's ParseAPI uses "a fast parallel algorithm" — functions parse
	// independently and concurrently here.
	Workers int
	// NoGapParsing disables the speculative pass over unclaimed code ranges.
	NoGapParsing bool
	// NoSliceResolution disables backward-slice resolution of jalr targets,
	// leaving only opcode-level classification (the ablation of Section
	// 3.2.3's analysis: jump tables and far jumps become unresolved).
	NoSliceResolution bool
}

// Parse builds the CFG of the binary.
func Parse(st *symtab.Symtab, opts Options) (*CFG, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &parser{st: st, opts: opts, workers: workers, work: make([]worker, workers+1)}

	// Seeds: the program entry point and every function symbol. Every seed
	// is scheduled before the first round.
	type seed struct {
		entry uint64
		name  string
	}
	seeds := make([]seed, 0, len(st.Functions)+1)
	p.scheduled = make(map[uint64]bool, len(st.Functions)+1)
	for _, fn := range st.Functions {
		if fn.Size == 0 && !st.InCode(fn.Addr) {
			continue
		}
		if !p.scheduled[fn.Addr] {
			p.scheduled[fn.Addr] = true
			seeds = append(seeds, seed{fn.Addr, fn.Name})
		}
	}
	if st.InCode(st.Entry) && !p.scheduled[st.Entry] {
		p.scheduled[st.Entry] = true
		seeds = append(seeds, seed{st.Entry, "_entry"})
	}
	p.cfg = &CFG{Symtab: st, Funcs: make([]*Function, 0, len(seeds)),
		funcMap: make(map[uint64]*Function, len(seeds))}

	// Round-synchronized parallel traversal: each round parses the frontier
	// of undiscovered function entries concurrently; call and tail-call
	// targets found in round N form round N+1.
	frontier := seeds
	for len(frontier) > 0 {
		results := make([]funcResult, len(frontier))
		par.ForEach(workers, len(frontier), func(w, i int) {
			results[i] = p.parseFunction(frontier[i].entry, frontier[i].name, false, &p.work[w])
		})

		var next []seed
		for _, r := range results {
			if len(r.fn.Blocks) == 0 {
				continue
			}
			p.cfg.Funcs = append(p.cfg.Funcs, r.fn)
			p.cfg.funcMap[r.fn.Entry] = r.fn
			for _, d := range r.discovered {
				if !p.scheduled[d] && p.st.InCode(d) {
					p.scheduled[d] = true
					name := ""
					if sym, ok := st.FuncContaining(d); ok && sym.Addr == d {
						name = sym.Name
					}
					next = append(next, seed{d, name})
				}
			}
		}
		frontier = next
	}

	sort.Slice(p.cfg.Funcs, func(i, j int) bool { return p.cfg.Funcs[i].Entry < p.cfg.Funcs[j].Entry })

	if !opts.NoGapParsing {
		p.parseGaps()
	}
	for _, fn := range p.cfg.Funcs {
		for i, b := range fn.Blocks {
			b.Index = i
		}
	}
	p.fillStats()
	return p.cfg, nil
}

type parser struct {
	st      *symtab.Symtab
	opts    Options
	workers int
	cfg     *CFG
	work    []worker // work[w] belongs to worker w; the last to the gap pass

	mu        sync.Mutex
	scheduled map[uint64]bool
}

type funcResult struct {
	fn         *Function
	discovered []uint64
}

// isFunctionEntry reports whether addr is a known function start (symbol or
// already-scheduled parse target).
func (p *parser) isFunctionEntry(addr uint64) bool {
	if sym, ok := p.st.FuncContaining(addr); ok && sym.Addr == addr {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scheduled[addr]
}

// sameFunction decides whether target belongs to the function at entry —
// the "target address lies within the same function" test of the
// classifier. Symbol ranges answer it when available; otherwise the target
// must not coincide with another known entry and must lie in the same
// region at a plausible distance.
func (p *parser) sameFunction(entry, target uint64) bool {
	if esym, ok := p.st.FuncContaining(entry); ok && esym.Size > 0 {
		return target >= esym.Addr && target < esym.Addr+esym.Size
	}
	if target == entry {
		return true
	}
	if p.isFunctionEntry(target) {
		return false
	}
	// Stripped fallback: same region, and no known function entry strictly
	// between the two addresses.
	lo, hi := entry, target
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, fn := range p.st.Functions {
		if fn.Addr > lo && fn.Addr <= hi && fn.Addr != entry {
			return false
		}
	}
	r1, ok1 := p.st.RegionContaining(entry)
	r2, ok2 := p.st.RegionContaining(target)
	return ok1 && ok2 && r1.Addr == r2.Addr
}

// worker is the storage of one parse worker, shared by every function that
// worker parses: its instructions, blocks and edges come from chunks that
// the CFG keeps, and its traversal state is reset, not reallocated, for
// each function.
type worker struct {
	insts  slab
	blocks []Block // the current block chunk
	edges  []Edge  // the current edge chunk

	worklist []uint64
	// pending maps intra-function edge targets to edges awaiting a block;
	// spare holds emptied lists for reuse.
	pending map[uint64][]*Edge
	spare   [][]*Edge
}

// Block and edge chunks double from their first size up to their last. A
// full chunk stays with the blocks or edges that point into it. The first
// chunks are small because parsing a small binary (fib, on DBI attach)
// must stay cheap.
const (
	blockChunkMin, blockChunkMax = 8, 128
	edgeChunkMin, edgeChunkMax   = 16, 256
)

// chunkAlloc returns a zeroed element of the current chunk, starting a new
// chunk when it is full.
func chunkAlloc[T any](chunk *[]T, lo, hi int) *T {
	c := *chunk
	if len(c) == cap(c) {
		c = make([]T, 0, min(max(2*cap(c), lo), hi))
	}
	c = c[:len(c)+1]
	*chunk = c
	return &c[len(c)-1]
}

// newBlock returns an empty block of fn starting at addr.
func (w *worker) newBlock(fn *Function, addr uint64) *Block {
	b := chunkAlloc(&w.blocks, blockChunkMin, blockChunkMax)
	b.Start, b.Func = addr, fn
	return b
}

// addEdge records an edge from from to to (nil when unresolved or not yet
// parsed) in both blocks' edge lists.
func (w *worker) addEdge(from, to *Block, kind EdgeKind, target uint64) *Edge {
	e := chunkAlloc(&w.edges, edgeChunkMin, edgeChunkMax)
	*e = Edge{From: from, To: to, Kind: kind, Target: target}
	from.Out = append(from.Out, e)
	if to != nil {
		to.In = append(to.In, e)
	}
	return e
}

// reset readies the traversal state for a new function.
func (w *worker) reset() {
	w.worklist = w.worklist[:0]
	if w.pending == nil {
		w.pending = map[uint64][]*Edge{}
	}
	for _, l := range w.pending {
		w.spare = append(w.spare, l[:0])
	}
	clear(w.pending)
}

// slab is the instruction storage of one parse worker, shared by every
// block of every function that worker decodes. A block's Insts is a window
// of the current chunk with capacity equal to its length, so decoding costs
// one append per instruction, and an append to a block's Insts copies
// instead of overwriting the next block, which may belong to another
// function. A full chunk stays with the blocks that point into it; the
// next chunk is twice as large, from slabMinInsts up to slabMaxInsts, and
// the block being decoded when the chunk filled moves to it alone. Chunk
// sizes never come from a symbol's st_size, which the file controls.
type slab struct {
	buf []riscv.Inst
}

const (
	slabMinInsts = 32
	slabMaxInsts = 512
)

// add appends inst to the block under construction, which starts at
// s.buf[start], and returns where that block starts after the append.
func (s *slab) add(start int, inst riscv.Inst) int {
	if len(s.buf) == cap(s.buf) {
		block := s.buf[start:]
		n := min(max(2*cap(s.buf), slabMinInsts), slabMaxInsts)
		buf := make([]riscv.Inst, len(block), max(n, 2*len(block)))
		copy(buf, block)
		s.buf, start = buf, 0
	}
	s.buf = append(s.buf, inst)
	return start
}

// fparse is the per-function traversal state.
type fparse struct {
	p  *parser
	fn *Function
	w  *worker
}

// edge records an out-edge, linking it immediately if the target block
// already exists, otherwise deferring until the block appears. Immediate
// linking matters: the jalr classifier consults predecessor blocks (for the
// backward slice and the jump-table bounds check) while parsing is still in
// progress.
func (s *fparse) edge(from *Block, kind EdgeKind, target uint64) {
	e := s.w.addEdge(from, nil, kind, target)
	if kind.Interprocedural() {
		return
	}
	if to, ok := s.fn.BlockAt(target); ok {
		e.To = to
		to.In = append(to.In, e)
		return
	}
	l, ok := s.w.pending[target]
	if n := len(s.w.spare); !ok && n > 0 {
		l, s.w.spare = s.w.spare[n-1], s.w.spare[:n-1]
	}
	s.w.pending[target] = append(l, e)
}

// linkPending attaches deferred edges targeting b.Start.
func (s *fparse) linkPending(b *Block) {
	l, ok := s.w.pending[b.Start]
	if !ok {
		return
	}
	for _, e := range l {
		if e.To == nil {
			e.To = b
			b.In = append(b.In, e)
		}
	}
	delete(s.w.pending, b.Start)
	s.w.spare = append(s.w.spare, l[:0])
}

// parseFunction traversal-parses one function into w's storage.
func (p *parser) parseFunction(entry uint64, name string, speculative bool, w *worker) funcResult {
	if name == "" {
		if sym, ok := p.st.FuncContaining(entry); ok && sym.Addr == entry {
			name = sym.Name
		}
	}
	fn := &Function{Name: name, Entry: entry, Speculative: speculative}
	res := funcResult{fn: fn}
	w.reset()
	s := &fparse{p: p, fn: fn, w: w}
	sl := &w.insts
	discover := func(target uint64) {
		res.discovered = append(res.discovered, target)
	}

	worklist := append(w.worklist, entry)
	for len(worklist) > 0 {
		addr := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]

		if _, done := fn.BlockAt(addr); done {
			continue
		}
		if b, ok := fn.BlockContaining(addr); ok {
			s.splitBlock(b, addr)
			continue
		}

		region, ok := p.st.RegionContaining(addr)
		if !ok || !region.Exec || region.Data == nil {
			continue
		}

		first := len(sl.buf)
		cur := addr
		var term riscv.Inst
		hasTerm := false
		for {
			if cur >= region.Addr+uint64(len(region.Data)) {
				break
			}
			if cur != addr {
				if _, exists := fn.BlockAt(cur); exists {
					break // ran into an existing leader: fallthrough edge below
				}
			}
			inst, err := riscv.Decode(region.Data[cur-region.Addr:], cur)
			if err != nil {
				break // undecodable: end the block here
			}
			first = sl.add(first, inst)
			cur = inst.Next()
			if inst.IsControlFlow() && inst.Mn != riscv.MnEBREAK {
				term, hasTerm = inst, true
				break
			}
		}
		if len(sl.buf) == first {
			continue
		}
		b := w.newBlock(fn, addr)
		b.Insts = sl.buf[first:len(sl.buf):len(sl.buf)]
		b.End = cur
		s.insertBlock(b)

		push := func(t uint64) {
			if t == 0 {
				return
			}
			worklist = append(worklist, t)
		}

		if !hasTerm {
			// Fell through into an existing block or off the region.
			if _, ok := fn.BlockAt(cur); ok {
				s.edge(b, EdgeFallthrough, cur)
			}
			continue
		}

		if term.Mn == riscv.MnECALL {
			// System calls end blocks. Resolving the syscall number (a7)
			// with the same backward slice that resolves jalr targets
			// detects the non-returning exit/exit_group calls, so traversal
			// does not run off the end of the program into the next
			// function — the moral equivalent of Dyninst's non-returning
			// function analysis.
			if !p.opts.NoSliceResolution {
				if num, ok := p.resolveConst(b, len(b.Insts)-1, riscv.RegA7, 0); ok && (num == 93 || num == 94) {
					continue // no out edges: execution never returns
				}
			}
			s.edge(b, EdgeFallthrough, cur)
			push(cur)
			continue
		}

		switch term.Cat() {
		case riscv.CatBranch:
			taken := term.Addr + uint64(term.Imm)
			s.edge(b, EdgeTaken, taken)
			s.edge(b, EdgeNotTaken, cur)
			push(taken)
			push(cur)
		case riscv.CatJAL:
			target := term.Addr + uint64(term.Imm)
			if term.Rd == riscv.X0 {
				// Unconditional jump or tail call (classifier rules 3 and 4).
				if p.sameFunction(entry, target) {
					b.Purpose = PurposeJump
					s.edge(b, EdgeDirect, target)
					push(target)
				} else {
					b.Purpose = PurposeTailCall
					s.edge(b, EdgeTailCall, target)
					discover(target)
				}
			} else {
				b.Purpose = PurposeCall
				s.edge(b, EdgeCall, target)
				s.edge(b, EdgeCallFT, cur)
				fn.Callees = append(fn.Callees, target)
				discover(target)
				push(cur)
			}
		case riscv.CatJALR:
			p.classifyJalr(s, b, term, cur, push, discover)
		}
	}
	for _, blk := range fn.Blocks {
		if blk.Purpose == PurposeReturn {
			fn.Returns = true
		}
	}
	w.worklist = worklist
	return res
}

// classifyJalr implements the paper's jalr decision procedure.
func (p *parser) classifyJalr(s *fparse, b *Block, term riscv.Inst, next uint64,
	push func(uint64), discover func(uint64)) {

	fn := s.fn
	idx := len(b.Insts) - 1

	// Attempt to resolve the target register to a constant by backward
	// slicing (fuses auipc+jalr and longer materialization sequences).
	var target uint64
	resolved := false
	if !p.opts.NoSliceResolution {
		if v, ok := p.resolveConst(b, idx, term.Rs1, 0); ok {
			target = (v + uint64(term.Imm)) &^ 1
			resolved = p.st.InCode(target)
		}
	}

	switch {
	case resolved && term.Rd == riscv.X0 && p.sameFunction(fn.Entry, target):
		// Rule 1: intra-function indirect jump.
		b.Purpose = PurposeJump
		s.edge(b, EdgeIndirect, target)
		push(target)
	case resolved && term.Rd == riscv.X0:
		// Rule 2: tail call to another function.
		b.Purpose = PurposeTailCall
		s.edge(b, EdgeTailCall, target)
		discover(target)
	case resolved && term.Rd != riscv.X0:
		// Rule 3: function call (auipc+jalr far call and friends).
		b.Purpose = PurposeCall
		s.edge(b, EdgeCall, target)
		s.edge(b, EdgeCallFT, next)
		fn.Callees = append(fn.Callees, target)
		discover(target)
		push(next)
	case term.Rd == riscv.X0 && term.Imm == 0 && isLinkReg(term.Rs1):
		// Rule 4: function return — an unconditional jump through a link
		// register whose value was established by a call.
		b.Purpose = PurposeReturn
		s.edge(b, EdgeReturn, 0)
	default:
		// Rule 5: jump-table analysis.
		if !p.opts.NoSliceResolution && term.Rd == riscv.X0 {
			if jt, ok := p.analyzeJumpTable(fn, b, idx, term); ok {
				b.Purpose = PurposeJumpTable
				b.Table = jt
				for _, t := range jt.Targets {
					s.edge(b, EdgeIndirect, t)
					push(t)
				}
				return
			}
		}
		// Rule 6: unresolvable. An indirect jump with linkage is still a
		// call (the continuation exists even if the callee is unknown).
		if term.Rd != riscv.X0 {
			b.Purpose = PurposeCall
			s.edge(b, EdgeCall, 0)
			s.edge(b, EdgeCallFT, next)
			push(next)
		} else {
			b.Purpose = PurposeUnresolved
		}
	}
}

// isLinkReg: x1 is the standard link register; x5 (t0) is the ABI's
// alternate link register.
func isLinkReg(r riscv.Reg) bool { return r == riscv.RegRA || r == riscv.RegT0 }

// resolveConst evaluates the value a register holds just before b.Insts[idx]
// executes, walking definitions backward through the block and, at block
// boundaries, through unique intraprocedural predecessors. Memory reads are
// answered only from read-only file-backed regions.
func (p *parser) resolveConst(b *Block, idx int, reg riscv.Reg, depth int) (uint64, bool) {
	if reg == riscv.X0 {
		return 0, true
	}
	if depth > 16 {
		return 0, false
	}
	for i := idx - 1; i >= 0; i-- {
		inst := b.Insts[i]
		if !inst.RegsWritten().Contains(reg) {
			continue
		}
		if inst.Rd != reg {
			return 0, false // written implicitly (call clobber): unknown
		}
		env := &semantics.Env{
			Inst: inst,
			Reg: func(r riscv.Reg) (uint64, bool) {
				return p.resolveConst(b, i, r, depth+1)
			},
			Load: p.readOnlyLoad,
		}
		return semantics.EvalRd(env)
	}
	// Not defined in this block: follow a unique intraprocedural predecessor.
	pred := uniqueIntraPred(b)
	if pred == nil {
		return 0, false
	}
	return p.resolveConst(pred, len(pred.Insts), reg, depth+1)
}

func (p *parser) readOnlyLoad(addr uint64, w int) (uint64, bool) {
	r, ok := p.st.RegionContaining(addr)
	if !ok || r.Write || r.Data == nil {
		return 0, false
	}
	return p.st.ReadMem(addr, w)
}

func uniqueIntraPred(b *Block) *Block {
	var pred *Block
	for _, e := range b.In {
		if e.Kind.Interprocedural() || e.From == nil {
			continue
		}
		if pred != nil && pred != e.From {
			return nil
		}
		pred = e.From
	}
	return pred
}

// insertBlock adds b to the function and links any pending edges to it.
func (s *fparse) insertBlock(b *Block) {
	fn := s.fn
	i, _ := slices.BinarySearchFunc(fn.Blocks, b.Start,
		func(x *Block, start uint64) int { return cmp.Compare(x.Start, start) })
	fn.Blocks = slices.Insert(fn.Blocks, i, b)
	s.linkPending(b)
}

// splitBlock splits the block containing addr so a block starts exactly at
// addr. The tail keeps the original out-edges; the head falls through.
func (s *fparse) splitBlock(b *Block, addr uint64) {
	if addr <= b.Start || addr >= b.End {
		return
	}
	var cut int
	found := false
	for i, inst := range b.Insts {
		if inst.Addr == addr {
			cut, found = i, true
			break
		}
	}
	if !found {
		return // addr points into the middle of an instruction; keep as-is
	}
	tail := s.w.newBlock(s.fn, addr)
	tail.End, tail.Insts, tail.Purpose, tail.Table = b.End, b.Insts[cut:], b.Purpose, b.Table
	tail.Out = b.Out
	for _, e := range tail.Out {
		e.From = tail
	}
	b.Insts = b.Insts[:cut:cut]
	b.End = addr
	b.Out = nil
	b.Purpose = PurposeNone
	b.Table = nil
	s.w.addEdge(b, tail, EdgeFallthrough, addr)
	s.insertBlock(tail)
}

func (p *parser) fillStats() {
	s := &p.cfg.Stats
	for _, fn := range p.cfg.Funcs {
		s.Functions++
		if fn.Speculative {
			s.GapFuncs++
		}
		for _, b := range fn.Blocks {
			s.Blocks++
			s.Instructions += len(b.Insts)
			switch b.Purpose {
			case PurposeCall:
				s.Calls++
			case PurposeReturn:
				s.Returns++
			case PurposeJump:
				s.Jumps++
			case PurposeTailCall:
				s.TailCalls++
			case PurposeJumpTable:
				s.JumpTables++
			case PurposeUnresolved:
				s.Unresolved++
			}
		}
	}
}
