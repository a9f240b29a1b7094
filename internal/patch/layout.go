package patch

import (
	"encoding/binary"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/snippet"
)

// Layout is where instrumentation goes in an image's address space. Every
// engine takes its addresses from here, so a rewritten binary, a live
// process and a DBI session agree, and the three can share one process.
// Above the page holding the image end lie:
//
//	+4 KiB          the patch area (relocated functions)
//	+2 MiB          a rewritten binary's variables
//	+2 MiB + 4 KiB  a live process's variables (2 MiB above the patch area)
//	+4 MiB          the DBI code cache, then its own variables and lookup table
type Layout struct {
	PatchArea, FileVars, LiveVars, Cache uint64
}

// LayoutOf places the instrumentation areas above f's allocated sections.
func LayoutOf(f *elfrv.File) Layout {
	var end uint64
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc != 0 && s.Size() != 0 && s.Addr+s.Size() > end {
			end = s.Addr + s.Size()
		}
	}
	page := (end + 0xfff) &^ 0xfff
	return Layout{PatchArea: page + 0x1000, FileVars: page + 0x200000,
		LiveVars: page + 0x201000, Cache: page + 0x400000}
}

// Memory is a live process's memory as instrumentation uses it;
// *proc.Process satisfies it.
type Memory interface {
	ReadMem(addr uint64, n int) ([]byte, error)
	WriteMem(addr uint64, b []byte) error
	MapRegion(addr, size uint64)
}

// varChunk is the size of one chunk of a variable area: 8,192 variables.
const varChunk = 0x10000

// Vars allocates instrumentation variables, one 8-byte-aligned slot each.
// The first chunk starts at the area's base and later chunks follow its
// spill address contiguously; in a live process each chunk is mapped when
// its first variable is allocated.
type Vars struct {
	base, spill uint64
	n           uint64 // variables allocated
	mem         Memory // nil for a rewritten file, whose data section grows instead
}

// newVars returns the allocator of a contiguous variable area at base,
// mapping its chunks in mem (nil for a rewritten file).
func newVars(base uint64, mem Memory) Vars {
	return Vars{base: base, spill: base + varChunk, mem: mem}
}

// CacheVars places a DBI code cache's neighbours: the first variable chunk
// at cacheEnd, a lookup table of tableSize bytes after it (returned), and
// the later variable chunks after the table.
func CacheVars(cacheEnd, tableSize uint64, mem Memory) (Vars, uint64) {
	table := cacheEnd + varChunk
	return Vars{base: cacheEnd, spill: table + tableSize, mem: mem}, table
}

// New allocates a variable of width 1, 2, 4 or 8 bytes (any other width
// allocates 8).
func (vs *Vars) New(name string, width int) *snippet.Var {
	if width != 1 && width != 2 && width != 4 && width != 8 {
		width = 8
	}
	off := vs.n * 8
	addr := vs.base + off
	if off >= varChunk {
		addr = vs.spill + off - varChunk
	}
	if off%varChunk == 0 && vs.mem != nil {
		vs.mem.MapRegion(addr, varChunk)
	}
	vs.n++
	return &snippet.Var{Name: name, Width: width, Addr: addr}
}

// Read returns v's current value in the live process.
func (vs *Vars) Read(v *snippet.Var) (uint64, error) {
	b, err := vs.mem.ReadMem(v.Addr, 8)
	if err != nil {
		return 0, err
	}
	out := binary.LittleEndian.Uint64(b)
	if v.Width == 1 || v.Width == 2 || v.Width == 4 {
		out &= 1<<(8*v.Width) - 1
	}
	return out, nil
}
