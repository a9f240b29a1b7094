package parse

import (
	"sort"

	"rvdyn/internal/riscv"
)

// Gap parsing (paper Section 2.1): traversal parsing from known entry
// points can leave unclaimed ranges in executable regions wherever code is
// only reachable through unresolved pointers. After the main parse, this
// pass scans those ranges and speculatively parses plausible function
// starts, marking the results Speculative. (Dyninst additionally applies a
// learned model to rank candidate starts [Rosenblum et al.]; here the
// heuristic is structural: the range must decode cleanly and terminate.)

type interval struct{ lo, hi uint64 }

// claimedIntervals merges all parsed block extents.
func (p *parser) claimedIntervals() []interval {
	var ivs []interval
	for _, fn := range p.cfg.Funcs {
		for _, b := range fn.Blocks {
			ivs = append(ivs, interval{b.Start, b.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var merged []interval
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.lo <= merged[n-1].hi {
			if iv.hi > merged[n-1].hi {
				merged[n-1].hi = iv.hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// parseGaps finds unclaimed executable ranges, records them, and attempts a
// speculative parse at each plausible start.
func (p *parser) parseGaps() {
	claimed := p.claimedIntervals()
	for _, region := range p.st.CodeRegions() {
		if region.Data == nil {
			continue
		}
		cur := region.Addr
		end := region.Addr + uint64(len(region.Data))
		for _, iv := range claimed {
			if iv.hi <= cur || iv.lo >= end {
				continue
			}
			if iv.lo > cur {
				p.tryGap(region.Addr, region.Data, cur, iv.lo)
			}
			if iv.hi > cur {
				cur = iv.hi
			}
		}
		if cur < end {
			p.tryGap(region.Addr, region.Data, cur, end)
		}
	}
	sort.Slice(p.cfg.Funcs, func(i, j int) bool { return p.cfg.Funcs[i].Entry < p.cfg.Funcs[j].Entry })
}

// tryGap records the gap and attempts one speculative function parse at its
// first non-padding address.
func (p *parser) tryGap(regionAddr uint64, data []byte, lo, hi uint64) {
	// Skip alignment padding: zeros, c.nop (0x0001), nop (0x00000013).
	start := lo
	for start < hi {
		off := start - regionAddr
		if off+2 > uint64(len(data)) {
			break
		}
		h := uint16(data[off]) | uint16(data[off+1])<<8
		if h == 0 || h == 0x0001 {
			start += 2
			continue
		}
		if off+4 <= uint64(len(data)) {
			w := uint32(h) | uint32(data[off+2])<<16 | uint32(data[off+3])<<24
			if w == 0x00000013 {
				start += 4
				continue
			}
		}
		break
	}
	if start >= hi {
		return // pure padding, not a gap worth recording
	}
	p.cfg.Gaps = append(p.cfg.Gaps, Gap{Addr: start, Size: hi - start})

	if !p.plausibleCode(data, regionAddr, start, hi) {
		return
	}
	p.mu.Lock()
	already := p.scheduled[start]
	p.scheduled[start] = true
	p.mu.Unlock()
	if already {
		return
	}
	res := p.parseFunction(start, "", true, &p.slabs[p.workers])
	if res == nil || len(res.fn.Blocks) == 0 {
		return
	}
	// Accept only if the speculative function stayed within the gap and has
	// sane control flow (at least one classified exit).
	_, fhi := res.fn.Extent()
	if fhi > hi {
		return
	}
	exits := 0
	for _, b := range res.fn.Blocks {
		if b.Purpose != PurposeNone {
			exits++
		}
	}
	if exits == 0 {
		return
	}
	p.cfg.Funcs = append(p.cfg.Funcs, res.fn)
	p.cfg.funcMap[res.fn.Entry] = res.fn
}

// plausibleCode requires the first few instructions at start to decode.
func (p *parser) plausibleCode(data []byte, regionAddr, start, hi uint64) bool {
	cur := start
	for i := 0; i < 4 && cur < hi; i++ {
		off := cur - regionAddr
		if off >= uint64(len(data)) {
			return false
		}
		inst, err := riscv.Decode(data[off:], cur)
		if err != nil {
			return false
		}
		cur = inst.Next()
		if inst.IsControlFlow() {
			break
		}
	}
	return true
}
