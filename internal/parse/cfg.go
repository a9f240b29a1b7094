// Package parse is the ParseAPI analog (paper Section 3.2.3): it constructs
// the control-flow graph of a binary — functions, basic blocks and edges,
// with natural loops found on demand — by parallel traversal parsing from
// known entry points, and it implements the RISC-V-specific disambiguation
// the paper describes: the six-rule classifier that decides whether a
// jal/jalr is a function return, a function call, an unconditional jump, a
// tail call, a jump-table dispatch, or unresolvable; the fusion of
// multi-instruction auipc+jalr sequences; backward slicing to recover
// indirect targets; jump-table analysis; and speculative gap parsing.
package parse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
)

// EdgeKind labels CFG edges, following Dyninst's edge taxonomy.
type EdgeKind int

const (
	EdgeFallthrough EdgeKind = iota // sequential flow
	EdgeTaken                       // conditional branch taken
	EdgeNotTaken                    // conditional branch not taken
	EdgeDirect                      // unconditional jump
	EdgeIndirect                    // resolved indirect jump (incl. jump tables)
	EdgeCall                        // interprocedural call
	EdgeCallFT                      // post-call fallthrough (call returns here)
	EdgeTailCall                    // interprocedural jump in call position
	EdgeReturn                      // function return
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFallthrough:
		return "fallthrough"
	case EdgeTaken:
		return "taken"
	case EdgeNotTaken:
		return "not-taken"
	case EdgeDirect:
		return "direct"
	case EdgeIndirect:
		return "indirect"
	case EdgeCall:
		return "call"
	case EdgeCallFT:
		return "call-fallthrough"
	case EdgeTailCall:
		return "tail-call"
	case EdgeReturn:
		return "return"
	}
	return "unknown"
}

// Interprocedural reports whether the edge leaves the function.
func (k EdgeKind) Interprocedural() bool {
	switch k {
	case EdgeCall, EdgeTailCall, EdgeReturn:
		return true
	}
	return false
}

// BranchPurpose is the classifier's verdict on a jal/jalr instruction — the
// high-level operation the multi-use instruction represents (Section 3.2.3).
type BranchPurpose int

const (
	PurposeNone BranchPurpose = iota
	PurposeJump
	PurposeCall
	PurposeReturn
	PurposeTailCall
	PurposeJumpTable
	PurposeUnresolved
)

func (p BranchPurpose) String() string {
	switch p {
	case PurposeNone:
		return "none"
	case PurposeJump:
		return "jump"
	case PurposeCall:
		return "call"
	case PurposeReturn:
		return "return"
	case PurposeTailCall:
		return "tail-call"
	case PurposeJumpTable:
		return "jump-table"
	case PurposeUnresolved:
		return "unresolved"
	}
	return "?"
}

// Edge is one CFG edge. Interprocedural edges carry the callee entry in
// Target; To is nil for unresolved targets.
type Edge struct {
	From   *Block
	To     *Block
	Kind   EdgeKind
	Target uint64
}

// Block is one basic block.
type Block struct {
	Start uint64
	End   uint64 // exclusive
	Insts []riscv.Inst

	Func *Function
	Out  []*Edge
	In   []*Edge

	// Index is the block's position in Func.Blocks, set when Parse returns,
	// so per-block analysis results can live in slices.
	Index int

	// Purpose is the classifier verdict for the block's terminating jal/jalr
	// (PurposeNone when the block ends in a branch, fallthrough, or non-CF
	// instruction).
	Purpose BranchPurpose

	// Table is the resolved jump table when Purpose is PurposeJumpTable,
	// and nil otherwise.
	Table *JumpTable
}

// JumpTable is a resolved jump-table dispatch: its targets, and the table
// layout itself so the binary rewriter can repoint slots at relocated code.
type JumpTable struct {
	Targets []uint64 // sorted, unique
	Base    uint64   // address of slot 0
	Stride  uint64   // bytes between slots
	Width   int      // bytes read per slot
	Count   uint64   // slots
}

// Last returns the final instruction of the block.
func (b *Block) Last() riscv.Inst {
	return b.Insts[len(b.Insts)-1]
}

// Size returns the byte size of the block.
func (b *Block) Size() uint64 { return b.End - b.Start }

// Contains reports whether addr falls inside the block.
func (b *Block) Contains(addr uint64) bool { return addr >= b.Start && addr < b.End }

func (b *Block) String() string {
	return fmt.Sprintf("block [%#x,%#x)", b.Start, b.End)
}

// Function is one parsed function.
type Function struct {
	Name  string
	Entry uint64

	Blocks []*Block // sorted by start address

	// loops is filled by the first call to Loops.
	loopsOnce sync.Once
	loops     []*Loop

	// Callees lists resolved call targets (entry addresses).
	Callees []uint64
	// Returns reports whether any block returns.
	Returns bool
	// Speculative marks functions discovered by gap parsing rather than
	// through symbols or calls.
	Speculative bool
}

// BlockAt returns the block starting at addr.
func (f *Function) BlockAt(addr uint64) (*Block, bool) {
	i, ok := slices.BinarySearchFunc(f.Blocks, addr,
		func(b *Block, addr uint64) int { return cmp.Compare(b.Start, addr) })
	if !ok {
		return nil, false
	}
	return f.Blocks[i], true
}

// BlockContaining returns the block covering addr.
func (f *Function) BlockContaining(addr uint64) (*Block, bool) {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Start > addr })
	if i == 0 {
		return nil, false
	}
	b := f.Blocks[i-1]
	if b.Contains(addr) {
		return b, true
	}
	return nil, false
}

// Extent returns the address range spanned by the function's blocks.
func (f *Function) Extent() (lo, hi uint64) {
	if len(f.Blocks) == 0 {
		return f.Entry, f.Entry
	}
	lo = f.Blocks[0].Start
	for _, b := range f.Blocks {
		if b.End > hi {
			hi = b.End
		}
	}
	return lo, hi
}

// EntryBlock returns the block at the function entry.
func (f *Function) EntryBlock() *Block {
	b, _ := f.BlockAt(f.Entry)
	return b
}

// ExitBlocks returns blocks that leave the function (return, tail call, or
// unresolved control flow).
func (f *Function) ExitBlocks() []*Block {
	var out []*Block
	for _, b := range f.Blocks {
		switch b.Purpose {
		case PurposeReturn, PurposeTailCall, PurposeUnresolved:
			out = append(out, b)
		}
	}
	return out
}

// Gap is an unclaimed byte range inside an executable region after parsing
// (paper: traversal parsing "may leave gaps in the binary where code may be
// present but has not yet been identified").
type Gap struct {
	Addr uint64
	Size uint64
}

// CFG is the whole-binary parse result.
type CFG struct {
	Symtab *symtab.Symtab

	Funcs   []*Function // sorted by entry
	funcMap map[uint64]*Function

	Gaps []Gap

	// Stats from the parse.
	Stats Stats
}

// Stats counts classifier outcomes and parse work, exposed for tests and
// the ablation benchmarks.
type Stats struct {
	Functions    int
	Blocks       int
	Instructions int
	Calls        int
	Returns      int
	Jumps        int
	TailCalls    int
	JumpTables   int
	Unresolved   int
	GapFuncs     int
}

// FuncAt returns the function with the given entry address.
func (c *CFG) FuncAt(entry uint64) (*Function, bool) {
	f, ok := c.funcMap[entry]
	return f, ok
}

// FuncByName returns the function with the given symbol name.
func (c *CFG) FuncByName(name string) (*Function, bool) {
	for _, f := range c.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// FuncContaining returns the parsed function whose blocks cover addr.
func (c *CFG) FuncContaining(addr uint64) (*Function, bool) {
	for _, f := range c.Funcs {
		if _, ok := f.BlockContaining(addr); ok {
			return f, true
		}
	}
	return nil, false
}
