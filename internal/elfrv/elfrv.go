// Package elfrv reads and writes ELF64 object files for the RISC-V
// architecture. It is the file-format substrate under the symtab package
// (Dyninst's SymtabAPI): it exposes sections, symbols, program headers, the
// RISC-V processor-specific e_flags, and the .riscv.attributes section with
// its uleb128-encoded attribute records.
//
// The package implements both directions because this reproduction must
// *produce* RISC-V executables (the assembler and the binary rewriter write
// them) as well as analyze them. Files written by this package are valid
// ELF64/EM_RISCV executables; the tests cross-validate them against the
// standard library's debug/elf reader.
package elfrv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ELF constants used by this package. Names follow the ELF specification.
const (
	ETExec = 2
	ETDyn  = 3

	EMRiscV = 243

	PTLoad = 1

	PFX = 1
	PFW = 2
	PFR = 4

	SHTNull     = 0
	SHTProgbits = 1
	SHTSymtab   = 2
	SHTStrtab   = 3
	SHTNobits   = 8
	// SHTRISCVAttributes is the processor-specific type of .riscv.attributes.
	SHTRISCVAttributes = 0x70000003

	SHFWrite     = 1
	SHFAlloc     = 2
	SHFExecinstr = 4

	STBLocal  = 0
	STBGlobal = 1

	STTNotype  = 0
	STTObject  = 1
	STTFunc    = 2
	STTSection = 3
)

// RISC-V e_flags bits (RISC-V ELF psABI). The paper's SymtabAPI section
// reads exactly these to learn, without .riscv.attributes, whether the
// binary uses the C extension and which float ABI it targets.
const (
	EFRiscVRVC            = 0x0001
	EFRiscVFloatABIMask   = 0x0006
	EFRiscVFloatABISoft   = 0x0000
	EFRiscVFloatABISingle = 0x0002
	EFRiscVFloatABIDouble = 0x0004
)

// Attribute tags for the "riscv" vendor subsection of .riscv.attributes.
const (
	TagRISCVStackAlign  = 4 // uleb128
	TagRISCVArch        = 5 // NTBS: the target architecture string
	TagRISCVUnalignedOK = 6 // uleb128
	attrFormatVersion   = 'A'
	attrFileSubsection  = 1
)

const pageSize = 0x1000

// Section is one ELF section. For SHT_NOBITS sections Data is nil and
// MemSize carries the size; for all others MemSize is ignored on write
// (len(Data) is used).
type Section struct {
	Name    string
	Type    uint32
	Flags   uint64
	Addr    uint64
	Data    []byte
	MemSize uint64 // for SHT_NOBITS
	Align   uint64
}

// Size returns the section's size in memory.
func (s *Section) Size() uint64 {
	if s.Type == SHTNobits {
		return s.MemSize
	}
	return uint64(len(s.Data))
}

// Symbol is one symbol-table entry.
type Symbol struct {
	Name    string
	Value   uint64
	Size    uint64
	Bind    byte   // STB*
	Type    byte   // STT*
	Section string // name of the defining section; "" = undefined
}

// File is a loaded or to-be-written ELF file.
type File struct {
	Entry    uint64
	Type     uint16 // ETExec or ETDyn
	Flags    uint32 // e_flags
	Sections []*Section
	Symbols  []Symbol
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for _, s := range f.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Symbol returns the named symbol.
func (f *File) Symbol(name string) (Symbol, bool) {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// FuncSymbols returns the STT_FUNC symbols sorted by value.
func (f *File) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Type == STTFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// SectionAt returns the alloc section containing the virtual address, or nil.
func (f *File) SectionAt(addr uint64) *Section {
	for _, s := range f.Sections {
		if s.Flags&SHFAlloc == 0 {
			continue
		}
		if addr >= s.Addr && addr < s.Addr+s.Size() {
			return s
		}
	}
	return nil
}

// ReadAt copies bytes at the given virtual address out of the file image.
func (f *File) ReadAt(addr uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("elfrv: negative read length %d at %#x", n, addr)
	}
	s := f.SectionAt(addr)
	if s == nil {
		return nil, fmt.Errorf("elfrv: address %#x not mapped by any alloc section", addr)
	}
	off := addr - s.Addr
	if s.Type == SHTNobits {
		return make([]byte, n), nil
	}
	if off+uint64(n) > uint64(len(s.Data)) {
		return nil, fmt.Errorf("elfrv: read of %d bytes at %#x crosses end of %s", n, addr, s.Name)
	}
	return s.Data[off : off+uint64(n)], nil
}

// ---------------------------------------------------------------------------
// Writing

type strtab struct {
	buf bytes.Buffer
	off map[string]uint32
}

// newStrtab returns a table sized for count strings of size bytes in all.
func newStrtab(count, size int) *strtab {
	t := &strtab{off: make(map[string]uint32, count)}
	t.buf.Grow(1 + size + count)
	t.buf.WriteByte(0)
	return t
}

func (t *strtab) add(s string) uint32 {
	if o, ok := t.off[s]; ok {
		return o
	}
	o := uint32(t.buf.Len())
	t.buf.WriteString(s)
	t.buf.WriteByte(0)
	t.off[s] = o
	return o
}

// Write serializes the file to ELF64 bytes. It lays out one PT_LOAD program
// header per alloc section, placing file offsets congruent to virtual
// addresses modulo the page size so a loader can mmap them directly.
func (f *File) Write() ([]byte, error) {
	type sec struct {
		*Section
		off     uint64
		nameOff uint32
		index   int
	}

	shstr := newStrtab(0, 0)

	// Section order: null, user sections, .symtab, .strtab, .shstrtab.
	// Alignment sanity first: a corrupt input file (this File may have come
	// from Read over attacker-controlled bytes) can carry alignments like
	// 1<<63 that would balloon the layout into a near-endless zero-fill.
	// Reject those instead of degrading into an effective hang.
	var secs []*sec
	for _, s := range f.Sections {
		if s.Align&(s.Align-1) != 0 {
			return nil, fmt.Errorf("elfrv: section %s alignment %#x is not a power of two", s.Name, s.Align)
		}
		if s.Align > pageSize {
			return nil, fmt.Errorf("elfrv: section %s alignment %#x exceeds the page size", s.Name, s.Align)
		}
		secs = append(secs, &sec{Section: s})
	}

	var loadable []*sec
	for _, s := range secs {
		if s.Flags&SHFAlloc != 0 {
			loadable = append(loadable, s)
		}
	}
	sort.SliceStable(loadable, func(i, j int) bool { return loadable[i].Addr < loadable[j].Addr })

	phnum := len(loadable)
	ehsize := uint64(64)
	phentsize := uint64(56)
	shentsize := uint64(64)

	// Lay out file offsets.
	off := ehsize + uint64(phnum)*phentsize
	for _, s := range loadable {
		// Align the file offset with the virtual address modulo page size.
		if delta := (s.Addr - off) % pageSize; delta != 0 {
			off += delta
		}
		s.off = off
		if s.Type != SHTNobits {
			off += uint64(len(s.Data))
		}
	}
	for _, s := range secs {
		if s.Flags&SHFAlloc != 0 {
			continue
		}
		align := s.Align
		if align == 0 {
			align = 1
		}
		off = (off + align - 1) &^ (align - 1)
		s.off = off
		off += uint64(len(s.Data))
	}

	// Build the symbol table. Index 0 is the null symbol; locals first.
	secIndex := map[string]uint16{}
	for i, s := range secs {
		secIndex[s.Name] = uint16(i + 1)
	}
	syms := append([]Symbol(nil), f.Symbols...)
	sort.SliceStable(syms, func(i, j int) bool {
		return syms[i].Bind == STBLocal && syms[j].Bind != STBLocal
	})
	names := 0
	for _, s := range syms {
		names += len(s.Name)
	}
	symstr := newStrtab(len(syms), names)
	var symBuf bytes.Buffer
	symBuf.Grow(24 * (1 + len(syms)))
	writeSym := func(nameOff uint32, info, other byte, shndx uint16, value, size uint64) {
		var b [24]byte
		binary.LittleEndian.PutUint32(b[0:], nameOff)
		b[4] = info
		b[5] = other
		binary.LittleEndian.PutUint16(b[6:], shndx)
		binary.LittleEndian.PutUint64(b[8:], value)
		binary.LittleEndian.PutUint64(b[16:], size)
		symBuf.Write(b[:])
	}
	writeSym(0, 0, 0, 0, 0, 0)
	localCount := 1
	for _, s := range syms {
		shndx := uint16(0)
		if s.Section != "" {
			shndx = secIndex[s.Section]
		}
		if s.Bind == STBLocal {
			localCount++
		}
		writeSym(symstr.add(s.Name), s.Bind<<4|s.Type&0xf, 0, shndx, s.Value, s.Size)
	}

	symtabSec := &sec{Section: &Section{Name: ".symtab", Type: SHTSymtab, Align: 8}}
	strtabSec := &sec{Section: &Section{Name: ".strtab", Type: SHTStrtab, Align: 1}}
	shstrtabSec := &sec{Section: &Section{Name: ".shstrtab", Type: SHTStrtab, Align: 1}}
	symtabSec.Data = symBuf.Bytes()
	strtabSec.Data = symstr.buf.Bytes()

	secs = append(secs, symtabSec, strtabSec)
	// Place symtab/strtab after user sections.
	for _, s := range []*sec{symtabSec, strtabSec} {
		off = (off + 7) &^ 7
		s.off = off
		off += uint64(len(s.Data))
	}

	// shstrtab must include every section name, including its own.
	secs = append(secs, shstrtabSec)
	for _, s := range secs {
		s.nameOff = shstr.add(s.Name)
	}
	shstrtabSec.Data = shstr.buf.Bytes()
	shstrtabSec.off = off
	off += uint64(len(shstrtabSec.Data))

	shoff := (off + 7) &^ 7
	shnum := len(secs) + 1 // plus null section

	// A corrupt input can legally reach here with tens of thousands of
	// page-aligned loadable sections whose zero-fill would balloon the
	// output to gigabytes. Bound the total layout instead of writing it.
	const maxWriteSize = 1 << 30
	end := shoff + uint64(shnum)*shentsize
	if end > maxWriteSize {
		return nil, fmt.Errorf("elfrv: refusing to write %d-byte layout (cap %d)", end, uint64(maxWriteSize))
	}

	var out bytes.Buffer
	out.Grow(int(end))
	// ELF header.
	ident := [16]byte{0x7f, 'E', 'L', 'F', 2 /*64-bit*/, 1 /*LE*/, 1 /*version*/}
	out.Write(ident[:])
	et := f.Type
	if et == 0 {
		et = ETExec
	}
	le := binary.LittleEndian
	w16 := func(v uint16) { var b [2]byte; le.PutUint16(b[:], v); out.Write(b[:]) }
	w32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); out.Write(b[:]) }
	w64 := func(v uint64) { var b [8]byte; le.PutUint64(b[:], v); out.Write(b[:]) }
	w16(et)
	w16(EMRiscV)
	w32(1) // version
	w64(f.Entry)
	w64(ehsize)  // phoff
	w64(shoff)   // shoff
	w32(f.Flags) // e_flags
	w16(uint16(ehsize))
	w16(uint16(phentsize))
	w16(uint16(phnum))
	w16(uint16(shentsize))
	w16(uint16(shnum))
	w16(uint16(shnum - 1)) // shstrndx: last section

	// Program headers.
	for _, s := range loadable {
		flags := uint32(PFR)
		if s.Flags&SHFExecinstr != 0 {
			flags |= PFX
		}
		if s.Flags&SHFWrite != 0 {
			flags |= PFW
		}
		filesz := uint64(len(s.Data))
		if s.Type == SHTNobits {
			filesz = 0
		}
		w32(PTLoad)
		w32(flags)
		w64(s.off)
		w64(s.Addr)
		w64(s.Addr)
		w64(filesz)
		w64(s.Size())
		w64(pageSize)
	}

	// Section contents.
	pad := func(n uint64) {
		if cur := uint64(out.Len()); cur < n {
			out.Write(make([]byte, n-cur))
		}
	}
	writeOrder := append([]*sec(nil), secs...)
	sort.SliceStable(writeOrder, func(i, j int) bool { return writeOrder[i].off < writeOrder[j].off })
	for _, s := range writeOrder {
		if s.Type == SHTNobits || len(s.Data) == 0 {
			continue
		}
		if uint64(out.Len()) > s.off {
			return nil, fmt.Errorf("elfrv: layout error: section %s offset %#x < current %#x", s.Name, s.off, out.Len())
		}
		pad(s.off)
		out.Write(s.Data)
	}

	// Section headers.
	pad(shoff)
	// Null section header.
	out.Write(make([]byte, shentsize))
	symtabIdx := 0
	for i, s := range secs {
		if s.Name == ".strtab" {
			symtabIdx = i // link target recorded below via name order
		}
	}
	_ = symtabIdx
	strtabShndx := uint32(0)
	for i, s := range secs {
		if s.Name == ".strtab" {
			strtabShndx = uint32(i + 1)
		}
	}
	for _, s := range secs {
		w32(s.nameOff)
		w32(s.Type)
		w64(s.Flags)
		w64(s.Addr)
		w64(s.off)
		w64(s.Size())
		link, info, entsize := uint32(0), uint32(0), uint64(0)
		if s.Type == SHTSymtab {
			link = strtabShndx
			info = uint32(localCount)
			entsize = 24
		}
		w32(link)
		w32(info)
		align := s.Align
		if align == 0 {
			align = 1
		}
		w64(align)
		w64(entsize)
	}
	return out.Bytes(), nil
}

// ---------------------------------------------------------------------------
// Reading

var errBadELF = errors.New("elfrv: not a valid ELF64 RISC-V file")

// Read parses an ELF64 little-endian file produced by this package or any
// conforming toolchain.
func Read(data []byte) (*File, error) {
	if len(data) < 64 || data[0] != 0x7f || data[1] != 'E' || data[2] != 'L' || data[3] != 'F' {
		return nil, fmt.Errorf("%w: bad magic", errBadELF)
	}
	if data[4] != 2 || data[5] != 1 {
		return nil, fmt.Errorf("%w: not ELF64 little-endian", errBadELF)
	}
	le := binary.LittleEndian
	machine := le.Uint16(data[18:])
	if machine != EMRiscV {
		return nil, fmt.Errorf("%w: machine %d is not EM_RISCV", errBadELF, machine)
	}
	f := &File{
		Type:  le.Uint16(data[16:]),
		Entry: le.Uint64(data[24:]),
		Flags: le.Uint32(data[48:]),
	}
	shoff := le.Uint64(data[40:])
	shentsize := uint64(le.Uint16(data[58:]))
	shnum := uint64(le.Uint16(data[60:]))
	shstrndx := uint64(le.Uint16(data[62:]))
	if shoff == 0 || shnum == 0 {
		return f, nil
	}
	// inRange reports whether [off, off+size) lies inside the file, with
	// overflow-safe arithmetic (corrupted headers routinely wrap uint64).
	inRange := func(off, size uint64) bool {
		return off <= uint64(len(data)) && size <= uint64(len(data))-off
	}
	if shentsize < 64 || !inRange(shoff, shnum*shentsize) || shnum*shentsize/shentsize != shnum {
		return nil, fmt.Errorf("%w: section headers out of range", errBadELF)
	}
	type rawShdr struct {
		name, typ              uint32
		flags, addr, off, size uint64
		link, info             uint32
		align, entsize         uint64
	}
	shdrs := make([]rawShdr, shnum)
	for i := uint64(0); i < shnum; i++ {
		b := data[shoff+i*shentsize:]
		shdrs[i] = rawShdr{
			name: le.Uint32(b), typ: le.Uint32(b[4:]),
			flags: le.Uint64(b[8:]), addr: le.Uint64(b[16:]),
			off: le.Uint64(b[24:]), size: le.Uint64(b[32:]),
			link: le.Uint32(b[40:]), info: le.Uint32(b[44:]),
			align: le.Uint64(b[48:]), entsize: le.Uint64(b[56:]),
		}
	}
	getStr := func(tab []byte, off uint32) string {
		if uint32(len(tab)) <= off {
			return ""
		}
		end := bytes.IndexByte(tab[off:], 0)
		if end < 0 {
			return string(tab[off:])
		}
		return string(tab[off : int(off)+end])
	}
	var shstrs []byte
	if shstrndx < shnum {
		h := shdrs[shstrndx]
		if h.typ != SHTNobits && inRange(h.off, h.size) {
			shstrs = data[h.off : h.off+h.size]
		}
	}
	names := make([]string, shnum)
	for i := uint64(1); i < shnum; i++ {
		h := shdrs[i]
		names[i] = getStr(shstrs, h.name)
		sec := &Section{
			Name: names[i], Type: h.typ, Flags: h.flags,
			Addr: h.addr, Align: h.align,
		}
		if h.typ == SHTNobits {
			sec.MemSize = h.size
		} else if inRange(h.off, h.size) {
			sec.Data = append([]byte(nil), data[h.off:h.off+h.size]...)
		}
		f.Sections = append(f.Sections, sec)
	}
	// Symbols.
	for i := uint64(1); i < shnum; i++ {
		h := shdrs[i]
		if h.typ != SHTSymtab || h.entsize == 0 {
			continue
		}
		var strs []byte
		if uint64(h.link) < shnum {
			sh := shdrs[h.link]
			if sh.typ != SHTNobits && inRange(sh.off, sh.size) {
				strs = data[sh.off : sh.off+sh.size]
			}
		}
		if h.entsize < 24 || !inRange(h.off, h.size) {
			continue // corrupted symbol table: skip rather than misparse
		}
		n := h.size / h.entsize
		for j := uint64(1); j < n; j++ {
			off := h.off + j*h.entsize
			if !inRange(off, 24) {
				break
			}
			b := data[off:]
			nameOff := le.Uint32(b)
			info := b[4]
			shndx := le.Uint16(b[6:])
			sym := Symbol{
				Name:  getStr(strs, nameOff),
				Value: le.Uint64(b[8:]),
				Size:  le.Uint64(b[16:]),
				Bind:  info >> 4,
				Type:  info & 0xf,
			}
			if shndx > 0 && uint64(shndx) < shnum {
				sym.Section = names[shndx]
			}
			f.Symbols = append(f.Symbols, sym)
		}
	}
	return f, nil
}
