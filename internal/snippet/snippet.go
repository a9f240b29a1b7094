// Package snippet defines the machine-independent abstract syntax trees
// that describe instrumentation code, and the instrumentation points where
// snippets are inserted (paper Section 2). Tools compose snippets from
// these nodes without any knowledge of the target ISA; the codegen package
// lowers them to RISC-V instruction sequences.
//
// The AST node set follows the paper's enumeration: reading and writing
// memory variables, basic logical and arithmetic operations, calling
// functions, and conditional control flow.
package snippet

import (
	"fmt"

	"rvdyn/internal/parse"
)

// Snippet is one AST node.
type Snippet interface {
	fmt.Stringer
	snippetNode()
}

// ---------------------------------------------------------------------------
// Expressions

// ConstInt is an integer literal.
type ConstInt struct{ Val int64 }

// Var is an instrumentation variable living in the mutatee's memory. Create
// variables with the mutator (core.Binary.NewVar); Addr is assigned when the
// variable is allocated in the rewritten binary's data section.
type Var struct {
	Name  string
	Width int // bytes: 1, 2, 4, or 8
	Addr  uint64
}

// ParamReg reads an argument register of the mutatee at the point (0..7 =
// a0..a7): the low-level escape hatch for argument tracing tools.
type ParamReg struct{ Index int }

// BinOpKind enumerates the arithmetic/logical/relational operators.
type BinOpKind int

const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (k BinOpKind) String() string {
	return [...]string{"+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">="}[k]
}

// BinOp applies a binary operator to two sub-expressions.
type BinOp struct {
	Op   BinOpKind
	L, R Snippet
}

// ---------------------------------------------------------------------------
// Statements

// Assign stores the value of Src into the variable Dst.
type Assign struct {
	Dst *Var
	Src Snippet
}

// Sequence executes its children in order.
type Sequence struct{ List []Snippet }

// If executes Then when Cond is non-zero, else Else (which may be nil).
type If struct {
	Cond Snippet
	Then Snippet
	Else Snippet
}

// CallFunc calls a function in the mutatee at the given entry address,
// passing up to two integer arguments. The generated code saves and
// restores the ABI's caller-saved state around the call.
type CallFunc struct {
	Entry uint64
	Args  []Snippet
}

func (ConstInt) snippetNode() {}
func (*Var) snippetNode()     {}
func (ParamReg) snippetNode() {}
func (BinOp) snippetNode()    {}
func (Assign) snippetNode()   {}
func (Sequence) snippetNode() {}
func (If) snippetNode()       {}
func (CallFunc) snippetNode() {}

func (c ConstInt) String() string { return fmt.Sprintf("%d", c.Val) }
func (v *Var) String() string     { return v.Name }
func (p ParamReg) String() string { return fmt.Sprintf("arg%d", p.Index) }
func (b BinOp) String() string    { return fmt.Sprintf("(%v %v %v)", b.L, b.Op, b.R) }
func (a Assign) String() string   { return fmt.Sprintf("%v = %v", a.Dst, a.Src) }
func (s Sequence) String() string {
	out := "{"
	for i, c := range s.List {
		if i > 0 {
			out += "; "
		}
		out += c.String()
	}
	return out + "}"
}
func (i If) String() string {
	if i.Else != nil {
		return fmt.Sprintf("if %v then %v else %v", i.Cond, i.Then, i.Else)
	}
	return fmt.Sprintf("if %v then %v", i.Cond, i.Then)
}
func (c CallFunc) String() string { return fmt.Sprintf("call %#x(%v)", c.Entry, c.Args) }

// Increment is the canonical counter snippet of the paper's benchmarks:
// v = v + 1.
func Increment(v *Var) Snippet {
	return Assign{Dst: v, Src: BinOp{Op: OpAdd, L: v, R: ConstInt{Val: 1}}}
}

// AddTo builds v = v + expr.
func AddTo(v *Var, expr Snippet) Snippet {
	return Assign{Dst: v, Src: BinOp{Op: OpAdd, L: v, R: expr}}
}

// Empty returns the identity snippet: it lowers to zero instructions, so
// inserting it exercises the full relocation-and-patch machinery while the
// instrumented program must behave exactly like the original. The
// differential oracle's instrumentation-equivalence check is built on it.
func Empty() Snippet { return Sequence{} }

// ---------------------------------------------------------------------------
// Points

// PointKind enumerates the paper's point abstractions: instruction level,
// function level, and CFG level.
type PointKind int

const (
	PointFuncEntry PointKind = iota
	PointFuncExit
	PointBlockEntry
	PointCallSite
	PointLoopBegin
	PointInsnBefore
)

func (k PointKind) String() string {
	switch k {
	case PointFuncEntry:
		return "func-entry"
	case PointFuncExit:
		return "func-exit"
	case PointBlockEntry:
		return "block-entry"
	case PointCallSite:
		return "call-site"
	case PointLoopBegin:
		return "loop-begin"
	case PointInsnBefore:
		return "insn-before"
	}
	return "?"
}

// Point is one instrumentation location: instrumentation inserted at a point
// executes immediately before the instruction at Addr.
type Point struct {
	Kind  PointKind
	Addr  uint64
	Func  *parse.Function
	Block *parse.Block
}

func (p Point) String() string {
	name := "?"
	if p.Func != nil {
		name = p.Func.Name
	}
	return fmt.Sprintf("%v@%#x in %s", p.Kind, p.Addr, name)
}

// FuncEntry returns the function-entry point.
func FuncEntry(fn *parse.Function) Point {
	return Point{Kind: PointFuncEntry, Addr: fn.Entry, Func: fn, Block: fn.EntryBlock()}
}

// FuncExits returns one point per exit block (returns, tail calls), placed
// before the terminating instruction so the instrumentation runs on the way
// out.
func FuncExits(fn *parse.Function) []Point {
	var out []Point
	for _, b := range fn.ExitBlocks() {
		out = append(out, Point{Kind: PointFuncExit, Addr: b.Last().Addr, Func: fn, Block: b})
	}
	return out
}

// BlockEntries returns one point per basic block (the paper's second
// benchmark instruments "the start of each basic block in the function").
func BlockEntries(fn *parse.Function) []Point {
	out := make([]Point, 0, len(fn.Blocks))
	for _, b := range fn.Blocks {
		out = append(out, Point{Kind: PointBlockEntry, Addr: b.Start, Func: fn, Block: b})
	}
	return out
}

// PointsNamed returns the point set a tool names: "entry" (also the empty
// name), "exits" or "blocks".
func PointsNamed(name string) (func(*parse.Function) []Point, error) {
	switch name {
	case "", "entry":
		return func(fn *parse.Function) []Point { return []Point{FuncEntry(fn)} }, nil
	case "exits":
		return FuncExits, nil
	case "blocks":
		return BlockEntries, nil
	}
	return nil, fmt.Errorf("unknown points mode %q", name)
}

// CallSites returns one point per call instruction in the function.
func CallSites(fn *parse.Function) []Point {
	var out []Point
	for _, b := range fn.Blocks {
		if b.Purpose == parse.PurposeCall {
			out = append(out, Point{Kind: PointCallSite, Addr: b.Last().Addr, Func: fn, Block: b})
		}
	}
	return out
}

// LoopBegins returns one point per loop, at the loop head (executed once
// per iteration).
func LoopBegins(fn *parse.Function) []Point {
	var out []Point
	for _, l := range fn.Loops() {
		out = append(out, Point{Kind: PointLoopBegin, Addr: l.Head.Start, Func: fn, Block: l.Head})
	}
	return out
}

// Before returns an instruction-level point at addr.
func Before(fn *parse.Function, addr uint64) (Point, error) {
	b, ok := fn.BlockContaining(addr)
	if !ok {
		return Point{}, fmt.Errorf("snippet: %#x is not inside %s", addr, fn.Name)
	}
	return Point{Kind: PointInsnBefore, Addr: addr, Func: fn, Block: b}, nil
}

// EdgePoint is a CFG-edge instrumentation point: code runs only when the
// identified edge is traversed (paper: "branch-taken and branch-not-taken
// edges, loop back edges").
type EdgePoint struct {
	Func  *parse.Function
	Block *parse.Block   // the edge's source block
	Kind  parse.EdgeKind // EdgeTaken, EdgeNotTaken, or EdgeDirect
}

func (p EdgePoint) String() string {
	return fmt.Sprintf("edge(%v)@%#x in %s", p.Kind, p.Block.Last().Addr, p.Func.Name)
}

// TakenEdge returns the branch-taken edge point of a block ending in a
// conditional branch.
func TakenEdge(fn *parse.Function, b *parse.Block) EdgePoint {
	return EdgePoint{Func: fn, Block: b, Kind: parse.EdgeTaken}
}

// NotTakenEdge returns the branch-not-taken edge point.
func NotTakenEdge(fn *parse.Function, b *parse.Block) EdgePoint {
	return EdgePoint{Func: fn, Block: b, Kind: parse.EdgeNotTaken}
}

// LoopBackEdges returns one edge point per loop back edge of the function.
func LoopBackEdges(fn *parse.Function) []EdgePoint {
	var out []EdgePoint
	for _, l := range fn.Loops() {
		for _, e := range l.BackEdges {
			out = append(out, EdgePoint{Func: fn, Block: e.From, Kind: e.Kind})
		}
	}
	return out
}

// EdgeDest returns the address control reaches when the edge is taken —
// the point whose liveness governs scratch-register choice for edge code.
func (p EdgePoint) EdgeDest() uint64 {
	term := p.Block.Last()
	switch p.Kind {
	case parse.EdgeNotTaken:
		return term.Next()
	default:
		return term.Addr + uint64(term.Imm)
	}
}
