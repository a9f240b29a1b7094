package parse

import "sort"

// Loop is one natural loop of a function's CFG.
type Loop struct {
	// Head is the loop header (the target of the back edges).
	Head *Block
	// Blocks is the loop body including the header, sorted by address.
	Blocks []*Block
	// BackEdges are the edges from body blocks to the header.
	BackEdges []*Edge
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
}

// Contains reports whether the block is in the loop body.
func (l *Loop) Contains(b *Block) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// intraSucc enumerates intra-function successors.
func intraSucc(b *Block) []*Block {
	var out []*Block
	for _, e := range b.Out {
		if !e.Kind.Interprocedural() && e.To != nil {
			out = append(out, e.To)
		}
	}
	return out
}

// intraPred enumerates intra-function predecessors.
func intraPred(b *Block) []*Block {
	var out []*Block
	for _, e := range b.In {
		if !e.Kind.Interprocedural() && e.From != nil {
			out = append(out, e.From)
		}
	}
	return out
}

// domSets computes per-block dominator sets as bitsets over block indices
// with the standard iterative algorithm, in reverse-postorder-ish block
// order (address order approximates it well for compiler-shaped CFGs).
type domSets struct {
	index map[*Block]int
	words int
	bits  [][]uint64 // bits[i] = dominator set of block i
}

func (d *domSets) dominates(a, b *Block) bool {
	ia, ok1 := d.index[a]
	ib, ok2 := d.index[b]
	if !ok1 || !ok2 {
		return false
	}
	return d.bits[ib][ia/64]&(1<<(uint(ia)%64)) != 0
}

func dominators(fn *Function) *domSets {
	entry := fn.EntryBlock()
	if entry == nil {
		return nil
	}
	n := len(fn.Blocks)
	d := &domSets{index: make(map[*Block]int, n), words: (n + 63) / 64}
	for i, b := range fn.Blocks {
		d.index[b] = i
	}
	d.bits = make([][]uint64, n)
	full := make([]uint64, d.words)
	for i := 0; i < n; i++ {
		full[i/64] |= 1 << (uint(i) % 64)
	}
	for i, b := range fn.Blocks {
		d.bits[i] = make([]uint64, d.words)
		if b == entry {
			d.bits[i][i/64] = 1 << (uint(i) % 64)
		} else {
			copy(d.bits[i], full)
		}
	}
	tmp := make([]uint64, d.words)
	changed := true
	for changed {
		changed = false
		for i, b := range fn.Blocks {
			if b == entry {
				continue
			}
			copy(tmp, full)
			any := false
			for _, p := range intraPred(b) {
				pi := d.index[p]
				for w := 0; w < d.words; w++ {
					tmp[w] &= d.bits[pi][w]
				}
				any = true
			}
			if !any {
				for w := range tmp {
					tmp[w] = 0
				}
			}
			tmp[i/64] |= 1 << (uint(i) % 64)
			for w := 0; w < d.words; w++ {
				if tmp[w] != d.bits[i][w] {
					copy(d.bits[i], tmp)
					changed = true
					break
				}
			}
		}
	}
	return d
}

// Loops returns the natural loops of the function, sorted by header
// address. They are found on the first call and shared by every later one;
// the static rewrite never asks, so Parse does not pay for them. Concurrent
// callers (rvdynd shares one parsed CFG across requests) all get the same
// slice.
func (f *Function) Loops() []*Loop {
	f.loopsOnce.Do(func() { f.loops = findLoops(f) })
	return f.loops
}

// findLoops finds the natural loops of fn: back edges are edges whose
// target dominates their source; the loop body is everything that reaches
// the back edge source without passing through the header.
func findLoops(fn *Function) []*Loop {
	dom := dominators(fn)
	if dom == nil {
		return nil
	}
	byHead := map[*Block]*Loop{}
	for _, b := range fn.Blocks {
		for _, e := range b.Out {
			if e.Kind.Interprocedural() || e.To == nil {
				continue
			}
			h := e.To
			if !dom.dominates(h, b) {
				continue // not a back edge
			}
			l := byHead[h]
			if l == nil {
				l = &Loop{Head: h}
				byHead[h] = l
			}
			l.BackEdges = append(l.BackEdges, e)
			// Body: reverse reachability from the back-edge source.
			body := map[*Block]bool{h: true}
			stack := []*Block{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[n] {
					continue
				}
				body[n] = true
				stack = append(stack, intraPred(n)...)
			}
			for blk := range body {
				if !l.Contains(blk) {
					l.Blocks = append(l.Blocks, blk)
				}
			}
		}
	}
	var loops []*Loop
	for _, l := range byHead {
		sort.Slice(l.Blocks, func(i, j int) bool { return l.Blocks[i].Start < l.Blocks[j].Start })
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Head.Start < loops[j].Head.Start })
	// Nesting: parent = smallest strictly-containing loop.
	for _, l := range loops {
		var best *Loop
		for _, m := range loops {
			if m == l || len(m.Blocks) <= len(l.Blocks) {
				continue
			}
			if m.Contains(l.Head) && (best == nil || len(m.Blocks) < len(best.Blocks)) {
				best = m
			}
		}
		l.Parent = best
	}
	return loops
}
