package asm

import (
	"fmt"
	"sort"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/riscv"
)

// layout assigns section base addresses, item addresses, and symbol values,
// applies branch relaxation, then resolves every symbolic reference.
func (a *assembler) layout() error {
	secs := a.orderedSections()

	// Iterate placement + relaxation to a fixed point: label branches start
	// at their 4-byte encodings; once addresses are known, any whose offset
	// fits a compressed form (with a safety margin for alignment drift)
	// shrinks to 2 bytes. Shrinking only moves endpoints closer together,
	// so the greedy loop converges and never invalidates a prior choice.
	for pass := 0; pass < 8; pass++ {
		a.placeSections(secs)
		if err := a.assignSymbols(); err != nil {
			return err
		}
		if !a.compress || !a.relaxPass(secs) {
			break
		}
	}

	// Reference resolution.
	for _, s := range secs {
		for _, it := range s.items {
			if it.ref == nil {
				continue
			}
			si, ok := a.syms[it.ref.sym]
			if !ok || !si.defined {
				return fmt.Errorf("line %d: undefined symbol %q", it.line, it.ref.sym)
			}
			val := int64(si.addr) + it.ref.addend
			switch it.ref.mod {
			case modNone:
				if it.kind == itemData {
					for i := 0; i < 8; i++ {
						it.data[i] = byte(uint64(val) >> (8 * i))
					}
					continue
				}
				it.inst.Imm = val
			case modHi:
				hi := (val + 0x800) >> 12
				it.inst.Imm = hi << 44 >> 44
			case modLo:
				it.inst.Imm = val << 52 >> 52
			case modPCRel:
				it.inst.Imm = val - int64(it.addr)
			case modPCRelHi:
				off := val - int64(it.addr)
				hi := (off + 0x800) >> 12
				it.inst.Imm = hi << 44 >> 44
			case modPCRelLo:
				off := val - int64(it.ref.pair.addr)
				hi := (off + 0x800) >> 12
				it.inst.Imm = off - hi<<12
			}
		}
	}
	return nil
}

// placeSections assigns section, item, and alignment-gap addresses.
func (a *assembler) placeSections(secs []*section) {
	addr := a.opts.TextBase
	for _, s := range secs {
		addr = (addr + 0xfff) &^ 0xfff
		s.addr = addr
		cur := addr
		for _, it := range s.items {
			if it.kind == itemAlign {
				aligned := (cur + it.p2 - 1) &^ (it.p2 - 1)
				it.size = aligned - cur
				it.addr = cur
				cur = aligned
				continue
			}
			it.addr = cur
			cur += it.size
		}
		s.size = cur - addr
		addr = cur
	}
}

// assignSymbols computes symbol addresses and ".-sym" sizes.
func (a *assembler) assignSymbols() error {
	for name, si := range a.syms {
		if !si.defined {
			continue
		}
		if si.item < len(si.section.items) {
			si.addr = si.section.items[si.item].addr
		} else {
			si.addr = si.section.addr + si.section.size
		}
		if si.hasSize && si.sizeEndSection != nil {
			var end uint64
			if si.sizeEndItem < len(si.sizeEndSection.items) {
				end = si.sizeEndSection.items[si.sizeEndItem].addr
			} else {
				end = si.sizeEndSection.addr + si.sizeEndSection.size
			}
			if end < si.addr {
				return fmt.Errorf("symbol %s: .size end precedes symbol", name)
			}
			si.size = end - si.addr
		}
	}
	return nil
}

// relaxMargin keeps compressed branch choices valid while alignment gaps
// shift between passes.
const relaxMargin = 64

// relaxPass shrinks 4-byte label branches to compressed forms where the
// current offsets fit. It reports whether anything changed.
func (a *assembler) relaxPass(secs []*section) bool {
	changed := false
	for _, s := range secs {
		if s.flags&elfrv.SHFExecinstr == 0 {
			continue
		}
		for _, it := range s.items {
			if it.kind != itemInst || it.ref == nil || it.ref.mod != modPCRel || it.size != 4 {
				continue
			}
			si, ok := a.syms[it.ref.sym]
			if !ok || !si.defined {
				continue
			}
			trial := it.inst
			trial.Imm = int64(si.addr) + it.ref.addend - int64(it.addr)
			if trial.Imm >= 0 {
				trial.Imm += relaxMargin
			} else {
				trial.Imm -= relaxMargin
			}
			if trial.Imm&1 != 0 {
				trial.Imm++
			}
			if _, ok := riscv.Compress(trial); ok {
				it.size = 2
				it.inst.Compressed = true
				changed = true
			}
		}
	}
	return changed
}

func (a *assembler) orderedSections() []*section {
	secs := append([]*section(nil), a.order...)
	rank := func(s *section) int {
		switch s.name {
		case ".text":
			return 0
		case ".rodata":
			return 1
		case ".data":
			return 2
		case ".bss":
			return 4
		}
		return 3
	}
	sort.SliceStable(secs, func(i, j int) bool { return rank(secs[i]) < rank(secs[j]) })
	return secs
}

// buildFile encodes every item and assembles the elfrv.File.
func (a *assembler) buildFile() (*elfrv.File, error) {
	f := &elfrv.File{}
	usedRVC := false

	for _, s := range a.orderedSections() {
		if s.typ == elfrv.SHTNobits {
			f.Sections = append(f.Sections, &elfrv.Section{
				Name: s.name, Type: s.typ, Flags: s.flags,
				Addr: s.addr, MemSize: s.size, Align: 8,
			})
			continue
		}
		data := make([]byte, 0, s.size)
		exec := s.flags&elfrv.SHFExecinstr != 0
		for _, it := range s.items {
			switch it.kind {
			case itemData:
				data = append(data, it.data...)
			case itemAlign:
				data = append(data, a.padding(exec, it.size)...)
			case itemInst:
				if err := riscv.CheckRegFiles(it.inst); err != nil {
					return nil, fmt.Errorf("line %d: %v", it.line, err)
				}
				b, err := riscv.EncodeBytes(it.inst)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", it.line, err)
				}
				if uint64(len(b)) != it.size {
					return nil, fmt.Errorf("line %d: %s sized %d but encoded %d bytes",
						it.line, it.inst.Mn, it.size, len(b))
				}
				if len(b) == 2 {
					usedRVC = true
				}
				data = append(data, b...)
			}
		}
		if uint64(len(data)) != s.size {
			return nil, fmt.Errorf("section %s: layout size %d != encoded size %d", s.name, s.size, len(data))
		}
		if len(data) == 0 {
			continue
		}
		align := uint64(8)
		if exec {
			align = 4
		}
		f.Sections = append(f.Sections, &elfrv.Section{
			Name: s.name, Type: s.typ, Flags: s.flags,
			Addr: s.addr, Data: data, Align: align,
		})
	}

	// Symbols, with automatic function sizes: a function without an explicit
	// .size extends to the next defined symbol in its section or section end.
	type addrSym struct {
		name string
		si   *symInfo
	}
	var all []addrSym
	for name, si := range a.syms {
		if si.defined {
			all = append(all, addrSym{name, si})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].si.addr != all[j].si.addr {
			return all[i].si.addr < all[j].si.addr
		}
		return all[i].name < all[j].name
	})
	// Labels in executable sections that are exported default to function
	// type (hand-written assembly rarely bothers with .type for _start).
	for _, as := range all {
		si := as.si
		if si.typ == 0 && si.global && si.section.flags&elfrv.SHFExecinstr != 0 {
			si.typ = elfrv.STTFunc
		}
	}
	for i, as := range all {
		si := as.si
		size := si.size
		if !si.hasSize {
			// Auto-size: extend to the next function symbol in the section
			// (plain local labels are branch targets, not boundaries).
			end := si.section.addr + si.section.size
			for j := i + 1; j < len(all); j++ {
				if all[j].si.section == si.section && all[j].si.addr > si.addr &&
					all[j].si.typ == elfrv.STTFunc {
					end = all[j].si.addr
					break
				}
			}
			size = end - si.addr
		}
		bind := byte(elfrv.STBLocal)
		if si.global {
			bind = elfrv.STBGlobal
		}
		f.Symbols = append(f.Symbols, elfrv.Symbol{
			Name: as.name, Value: si.addr, Size: size,
			Bind: bind, Type: si.typ, Section: si.section.name,
		})
	}

	// Entry point: _start, else main, else the text base.
	f.Entry = a.opts.TextBase
	for _, cand := range []string{"_start", "main"} {
		if si, ok := a.syms[cand]; ok && si.defined {
			f.Entry = si.addr
			break
		}
	}

	// Processor-specific metadata (Section 3.2.1 of the paper).
	if usedRVC {
		f.Flags |= elfrv.EFRiscVRVC
	}
	switch {
	case a.usedExt.Has(riscv.ExtD):
		f.Flags |= elfrv.EFRiscVFloatABIDouble
	case a.usedExt.Has(riscv.ExtF):
		f.Flags |= elfrv.EFRiscVFloatABISingle
	}
	if !a.opts.NoAttributes {
		f.SetRISCVAttributes(elfrv.Attributes{
			Arch:       a.opts.Arch.ArchString(),
			StackAlign: 16,
		})
	}
	return f, nil
}

// padding fills alignment gaps: executable sections get nop encodings so a
// linear-sweep disassembler can keep decoding, data sections get zeros.
func (a *assembler) padding(exec bool, n uint64) []byte {
	out := make([]byte, 0, n)
	if !exec {
		return make([]byte, n)
	}
	for n >= 4 {
		out = append(out, 0x13, 0x00, 0x00, 0x00) // nop
		n -= 4
	}
	for n >= 2 {
		out = append(out, 0x01, 0x00) // c.nop
		n -= 2
	}
	for n > 0 {
		out = append(out, 0)
		n--
	}
	return out
}
