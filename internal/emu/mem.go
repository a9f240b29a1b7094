// Package emu is a user-mode RV64GC emulator. It stands in for the SiFive
// P550 board of the paper's experimental setup (Section 4.2): it executes
// the ELF binaries our assembler and binary rewriter produce, services a
// Linux-flavoured syscall interface, and maintains a deterministic cycle
// counter driven by a per-instruction cost model, from which the virtual
// clock_gettime that the benchmark workload samples is derived.
//
// Determinism is the point: the paper's numbers are wall-clock seconds on
// silicon; ours are virtual seconds on a cost model, so relative overheads
// (the shape the reproduction must preserve) are exactly repeatable.
package emu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"rvdyn/internal/elfrv"
)

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Software TLB geometry. Each access kind (read, write, fetch) gets its own
// direct-mapped table so the hit counters can attribute traffic per kind and
// a streaming writer cannot evict the loop's read translations. 64 entries
// cover 256 KiB of working set per kind — far more than the one-entry
// lastPage cache this replaces, which thrashed as soon as a loop touched two
// arrays on different pages (matmul's A and B matrices).
const (
	tlbBits = 6
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

type page [pageSize]byte

// TLBStats counts software-TLB probes per access kind. The fields are plain
// (non-atomic) counters bumped on the memory hot path; the CPU snapshots
// them into obs counters at every Run return.
type TLBStats struct {
	ReadHits, ReadMisses   uint64
	WriteHits, WriteMisses uint64
	FetchHits, FetchMisses uint64
}

// Memory is a sparse, demand-zero paged address space. Map only reserves a
// range: it records each page index with a nil entry in the pages map, and
// the page itself is allocated, zeroed, on its first access of any kind
// (read, write, fetch, Page). Address translation (page-index → *page) goes
// through per-kind direct-mapped software TLBs; the pages map is only
// consulted on a TLB miss or from the cold management paths (Map, Mapped,
// Page, LoadELF), so the allocation happens off the hot path.
type Memory struct {
	pages map[uint64]*page

	// Direct-mapped TLBs, indexed by pageIdx&tlbMask and tagged with
	// pageIdx+1 (0 = invalid, so a zero-value Memory starts empty). Only
	// present pages are ever cached, and mapped pages are never replaced or
	// removed, so entries cannot go stale; Map still flushes defensively so
	// any future unmap path inherits a coherent baseline.
	rTag, wTag, fTag [tlbSize]uint64
	rPg, wPg, fPg    [tlbSize]*page

	// TLB accumulates hit/miss counts per access kind.
	TLB TLBStats
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// MemFault describes an access to an unmapped address.
type MemFault struct {
	Addr  uint64
	Write bool
}

func (e *MemFault) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("emu: memory fault: %s at unmapped address %#x", op, e.Addr)
}

// touch is the cold translation path: it returns the page at index idx,
// allocating a reserved page on first touch, or nil when idx lies outside
// every reservation. The TLBs are filled by the per-kind miss handlers, not
// here, so management callers (Mapped, Page) never pollute them.
func (m *Memory) touch(idx uint64) *page {
	p, ok := m.pages[idx]
	if p == nil && ok {
		p = new(page)
		m.pages[idx] = p
	}
	return p
}

// readPage translates addr for a data read through the read TLB.
func (m *Memory) readPage(addr uint64) *page {
	idx := addr >> pageBits
	s := idx & tlbMask
	if m.rTag[s] == idx+1 {
		m.TLB.ReadHits++
		return m.rPg[s]
	}
	return m.readMiss(addr)
}

func (m *Memory) readMiss(addr uint64) *page {
	m.TLB.ReadMisses++
	idx := addr >> pageBits
	p := m.touch(idx)
	if p != nil {
		s := idx & tlbMask
		m.rTag[s], m.rPg[s] = idx+1, p
	}
	return p
}

// writePage translates addr for a data write through the write TLB.
func (m *Memory) writePage(addr uint64) *page {
	idx := addr >> pageBits
	s := idx & tlbMask
	if m.wTag[s] == idx+1 {
		m.TLB.WriteHits++
		return m.wPg[s]
	}
	return m.writeMiss(addr)
}

func (m *Memory) writeMiss(addr uint64) *page {
	m.TLB.WriteMisses++
	idx := addr >> pageBits
	p := m.touch(idx)
	if p != nil {
		s := idx & tlbMask
		m.wTag[s], m.wPg[s] = idx+1, p
	}
	return p
}

// fetchPage translates addr for an instruction fetch through the fetch TLB.
func (m *Memory) fetchPage(addr uint64) *page {
	idx := addr >> pageBits
	s := idx & tlbMask
	if m.fTag[s] == idx+1 {
		m.TLB.FetchHits++
		return m.fPg[s]
	}
	return m.fetchMiss(addr)
}

func (m *Memory) fetchMiss(addr uint64) *page {
	m.TLB.FetchMisses++
	idx := addr >> pageBits
	p := m.touch(idx)
	if p != nil {
		s := idx & tlbMask
		m.fTag[s], m.fPg[s] = idx+1, p
	}
	return p
}

// FlushTLB invalidates every software-TLB entry (all kinds). Map calls it so
// translation state never outlives a mapping change.
func (m *Memory) FlushTLB() {
	for i := range m.rTag {
		m.rTag[i], m.wTag[i], m.fTag[i] = 0, 0, 0
		m.rPg[i], m.wPg[i], m.fPg[i] = nil, nil, nil
	}
}

// Fetch16 reads the aligned halfword at addr through the fetch TLB.
// Instruction parcels are 2-byte aligned, so a parcel never straddles a
// page; the decoder fetches 32-bit instructions as two parcels.
func (m *Memory) Fetch16(addr uint64) (uint16, error) {
	p := m.fetchPage(addr)
	if p == nil {
		return 0, &MemFault{Addr: addr}
	}
	return binary.LittleEndian.Uint16(p[addr&pageMask:]), nil
}

// Map reserves [addr, addr+size) as zero-filled memory; each page is
// allocated on its first access. Mapping over an already-mapped range keeps
// the existing pages (and their contents).
func (m *Memory) Map(addr, size uint64) {
	for idx := addr >> pageBits; idx<<pageBits < addr+size; idx++ {
		if _, ok := m.pages[idx]; !ok {
			m.pages[idx] = nil
		}
	}
	m.FlushTLB()
}

// Mapped reports whether addr is mapped (touched or only reserved).
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.pages[addr>>pageBits]
	return ok
}

// PageAddrs returns the base address of every mapped page in ascending
// order. Differential-testing tools use it to compare two address spaces
// exhaustively without knowing the mapping history.
func (m *Memory) PageAddrs() []uint64 {
	addrs := make([]uint64, 0, len(m.pages))
	for idx := range m.pages {
		addrs = append(addrs, idx<<pageBits)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// Page returns the 4 KiB page backing addr (allocating a reserved page on
// first use), or nil if unmapped. The slice aliases live memory; callers
// must not retain it across writes.
func (m *Memory) Page(addr uint64) []byte {
	p := m.touch(addr >> pageBits)
	if p == nil {
		return nil
	}
	return p[:]
}

// ReadBytes copies n bytes at addr into dst (dst length gives n).
func (m *Memory) ReadBytes(addr uint64, dst []byte) error {
	for len(dst) > 0 {
		p := m.readPage(addr)
		if p == nil {
			return &MemFault{Addr: addr}
		}
		off := addr & pageMask
		n := copy(dst, p[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes copies src into memory at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) error {
	for len(src) > 0 {
		p := m.writePage(addr)
		if p == nil {
			return &MemFault{Addr: addr, Write: true}
		}
		off := addr & pageMask
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
	return nil
}

// writeHost is WriteBytes for writes from outside the process: the part of
// src landing on a page that is only reserved (never touched) stays
// unallocated when it is all zero, since the page already reads as zero.
// A debugger clearing a freshly mapped table costs no host memory.
func (m *Memory) writeHost(addr uint64, src []byte) error {
	for len(src) > 0 {
		n := min(uint64(len(src)), pageSize-addr&pageMask)
		if p, ok := m.pages[addr>>pageBits]; !ok || p != nil || !bytes.Equal(src[:n], zeroPage[:n]) {
			if err := m.WriteBytes(addr, src[:n]); err != nil {
				return err
			}
		}
		src = src[n:]
		addr += n
	}
	return nil
}

// zeroPage is what a reserved page reads as.
var zeroPage page

// Fixed-width accessors. Reads and writes may straddle a page boundary; the
// fast path handles the common in-page case with one word-wide access.

func (m *Memory) Read8(addr uint64) (uint8, error) {
	p := m.readPage(addr)
	if p == nil {
		return 0, &MemFault{Addr: addr}
	}
	return p[addr&pageMask], nil
}

func (m *Memory) Write8(addr uint64, v uint8) error {
	p := m.writePage(addr)
	if p == nil {
		return &MemFault{Addr: addr, Write: true}
	}
	p[addr&pageMask] = v
	return nil
}

func (m *Memory) Read16(addr uint64) (uint16, error) {
	if addr&pageMask <= pageSize-2 {
		p := m.readPage(addr)
		if p == nil {
			return 0, &MemFault{Addr: addr}
		}
		return binary.LittleEndian.Uint16(p[addr&pageMask:]), nil
	}
	var b [2]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func (m *Memory) Write16(addr uint64, v uint16) error {
	if addr&pageMask <= pageSize-2 {
		p := m.writePage(addr)
		if p == nil {
			return &MemFault{Addr: addr, Write: true}
		}
		binary.LittleEndian.PutUint16(p[addr&pageMask:], v)
		return nil
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return m.WriteBytes(addr, b[:])
}

func (m *Memory) Read32(addr uint64) (uint32, error) {
	if addr&pageMask <= pageSize-4 {
		p := m.readPage(addr)
		if p == nil {
			return 0, &MemFault{Addr: addr}
		}
		return binary.LittleEndian.Uint32(p[addr&pageMask:]), nil
	}
	var b [4]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (m *Memory) Write32(addr uint64, v uint32) error {
	if addr&pageMask <= pageSize-4 {
		p := m.writePage(addr)
		if p == nil {
			return &MemFault{Addr: addr, Write: true}
		}
		binary.LittleEndian.PutUint32(p[addr&pageMask:], v)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.WriteBytes(addr, b[:])
}

func (m *Memory) Read64(addr uint64) (uint64, error) {
	if addr&pageMask <= pageSize-8 {
		p := m.readPage(addr)
		if p == nil {
			return 0, &MemFault{Addr: addr}
		}
		return binary.LittleEndian.Uint64(p[addr&pageMask:]), nil
	}
	var b [8]byte
	if err := m.ReadBytes(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (m *Memory) Write64(addr uint64, v uint64) error {
	if addr&pageMask <= pageSize-8 {
		p := m.writePage(addr)
		if p == nil {
			return &MemFault{Addr: addr, Write: true}
		}
		binary.LittleEndian.PutUint64(p[addr&pageMask:], v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.WriteBytes(addr, b[:])
}

// LoadELF maps every alloc section of the file into memory.
func (m *Memory) LoadELF(f *elfrv.File) error {
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc == 0 || s.Size() == 0 {
			continue
		}
		m.Map(s.Addr, s.Size())
		if s.Type != elfrv.SHTNobits {
			if err := m.WriteBytes(s.Addr, s.Data); err != nil {
				return err
			}
		}
	}
	return nil
}
