package stackwalk_test

import (
	"fmt"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/oracle"
	"rvdyn/internal/parse"
	"rvdyn/internal/proc"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/stackwalk"
	"rvdyn/internal/workload"
)

// oracleSeed is a generated program whose every jalr discards its link, so
// its shadow call depth stays 0 (a linking jalr in a generated program
// jumps forward inside _start rather than calling).
const oracleSeed, oracleLen = 11, 300

// walkPrograms are the programs the walk oracle instruments.
func walkPrograms(t *testing.T) map[string]*elfrv.File {
	t.Helper()
	out := map[string]*elfrv.File{}
	for name, src := range map[string]string{
		"fib":          workload.FibSource,
		"framepointer": workload.FramePointerSource,
		"matmul":       workload.MatmulSource(6, 1),
	} {
		f, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = f
	}
	f, err := oracle.BuildProgram(oracleSeed, oracleLen)
	if err != nil {
		t.Fatal(err)
	}
	out[fmt.Sprintf("seed%d", oracleSeed)] = f
	return out
}

// walkPointSets are the instrumentation the oracle applies to every
// function of a program.
var walkPointSets = []struct {
	name   string
	points func(*parse.Function) []snippet.Point
	edges  func(*parse.Function) []snippet.EdgePoint
}{
	{"entry", func(fn *parse.Function) []snippet.Point { return []snippet.Point{snippet.FuncEntry(fn)} }, nil},
	{"exits", snippet.FuncExits, nil},
	{"blocks", snippet.BlockEntries, nil},
	{"backedges", nil, snippet.LoopBackEdges},
}

// depthDelta is the change in call depth the instruction at pc makes when
// it retires: +1 for a call (jal or jalr linking ra), -1 for a return
// (jalr x0, 0(ra)).
func depthDelta(t *testing.T, p *proc.Process, pc uint64) int {
	raw, err := p.ReadMem(pc, 4)
	if err != nil {
		if raw, err = p.ReadMem(pc, 2); err != nil {
			t.Fatalf("read %#x: %v", pc, err)
		}
	}
	in, err := riscv.Decode(raw, pc)
	if err != nil {
		t.Fatalf("decode %#x: %v", pc, err)
	}
	switch {
	case (in.IsJAL() || in.IsJALR()) && in.Rd == riscv.RegRA:
		return 1
	case in.IsJALR() && in.Rd == riscv.X0 && in.Rs1 == riscv.RegRA && in.Imm == 0:
		return -1
	}
	return 0
}

// walkAgrees reports whether a walk has one frame per call level, every
// frame in a known function and _start outermost.
func walkAgrees(frames []stackwalk.Frame, err error, depth int) bool {
	if err != nil || len(frames) != depth+1 || frames[len(frames)-1].FuncName != "_start" {
		return false
	}
	for _, f := range frames {
		if f.Func == nil {
			return false
		}
	}
	return true
}

func frameList(frames []stackwalk.Frame) string {
	var s []string
	for _, f := range frames {
		s = append(s, f.String())
	}
	return "[" + strings.Join(s, ", ") + "]"
}

// TestWalkOracle instruments every function of each program in a live
// process, steps it one instruction at a time and walks the stack before
// every instruction, relocated and generated code included. Each walk
// must match a shadow call depth kept from the retired calls and returns,
// end at _start and attribute every frame to a function. Spill-always
// cells run snippets below the original sp, so they check that the walk
// applies generated code's sp adjustment.
func TestWalkOracle(t *testing.T) {
	progs := walkPrograms(t)
	for _, prog := range []string{"fib", "framepointer", "matmul", fmt.Sprintf("seed%d", oracleSeed)} {
		for _, mode := range []codegen.Mode{codegen.ModeDeadRegister, codegen.ModeSpillAlways} {
			for _, ps := range walkPointSets {
				name := fmt.Sprintf("%s/%s/%s", prog, mode, ps.name)
				t.Run(name, func(t *testing.T) {
					walkCell(t, progs[prog], func(b *core.Binary, p *core.Process) error {
						v := p.NewVar("count", 8)
						for _, fn := range b.Functions() {
							var pts []snippet.Point
							var eds []snippet.EdgePoint
							if ps.points != nil {
								pts = ps.points(fn)
							}
							if ps.edges != nil {
								eds = ps.edges(fn)
							}
							if _, err := p.InstrumentFunctionFull(fn, pts, eds, snippet.Increment(v), mode); err != nil {
								return fmt.Errorf("instrument %s: %w", fn.Name, err)
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestWalkOracleCallSnippet walks through snippets that call a mutatee
// function: framepointer's level1-3 call spin at entry and at every exit.
// Inside spin the snippet's frame sits between spin and the instrumented
// function, whose return address is then only in the slot the snippet
// saved ra to.
func TestWalkOracleCallSnippet(t *testing.T) {
	f := walkPrograms(t)["framepointer"]
	for _, mode := range []codegen.Mode{codegen.ModeDeadRegister, codegen.ModeSpillAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			walkCell(t, f, func(b *core.Binary, p *core.Process) error {
				spin, err := b.FindFunction("spin")
				if err != nil {
					return err
				}
				for _, name := range []string{"level1", "level2", "level3"} {
					fn, err := b.FindFunction(name)
					if err != nil {
						return err
					}
					pts := append([]snippet.Point{snippet.FuncEntry(fn)}, snippet.FuncExits(fn)...)
					if _, err := p.InstrumentFunction(fn, pts, snippet.CallFunc{Entry: spin.Entry}, mode); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// TestWalkOracleDBI runs fib natively and under the DBI engine with an
// entry probe, one instruction at a time. At every translation-group bound
// the DBI walk, attributed through the engine's provenance table, must
// equal the native walk at the same (compensated) instret.
func TestWalkOracleDBI(t *testing.T) {
	f := walkPrograms(t)["fib"]
	b, err := core.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	np, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	w := stackwalk.New(b.CFG, np, nil)
	var native []string // by instret
	for !np.Exited() {
		frames, _ := w.Walk()
		native = append(native, frameList(frames))
		if _, err := np.ContinueBudget(1); err != nil {
			t.Fatal(err)
		}
	}
	fib, _ := b.FindFunction("fib")
	for _, mode := range []codegen.Mode{codegen.ModeDeadRegister, codegen.ModeSpillAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := proc.Launch(f, emu.P550())
			if err != nil {
				t.Fatal(err)
			}
			e, err := dbi.Attach(p, f, dbi.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Probe(fib, snippet.Increment(e.NewVar("calls", 8))); err != nil {
				t.Fatal(err)
			}
			w := stackwalk.New(b.CFG, p, e.Provenance())
			bounds, bad := 0, 0
			for !p.Exited() {
				if _, ok := e.OrigPC(p.PC()); ok {
					bounds++
					n := p.CPU().Instret - uint64(e.Comp().ExtraInstret)
					frames, _ := w.Walk()
					if got := frameList(frames); n >= uint64(len(native)) || got != native[n] {
						if bad == 0 {
							t.Errorf("instret %d, pc %#x: walk %s, native %s", n, p.PC(), got, native[min(n, uint64(len(native)-1))])
						}
						bad++
					}
				}
				if _, err := e.ContinueBudget(1); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d group bounds, %d disagree", bounds, bad)
		})
	}
}

// walkCell launches f, instruments it, and walks before every instruction
// to exit, failing on any walk that disagrees with the shadow call depth.
func walkCell(t *testing.T, f *elfrv.File, instrument func(*core.Binary, *core.Process) error) {
	b, err := core.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if err := instrument(b, p); err != nil {
		t.Fatal(err)
	}
	steps, bad, first, depth := 0, 0, "", 0
	for !p.Exited() {
		frames, err := p.Walk()
		if !walkAgrees(frames, err, depth) {
			if bad == 0 {
				first = fmt.Sprintf("pc %#x depth %d: %s err=%v", p.PC(), depth, frameList(frames), err)
			}
			bad++
		}
		steps++
		d := depthDelta(t, p.Process, p.PC())
		ev, err := p.ContinueBudget(1)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != proc.EventBudget && ev.Kind != proc.EventExit {
			t.Fatalf("step at %#x: %+v", p.PC(), ev)
		}
		depth += d
	}
	t.Logf("%d steps, %d disagree", steps, bad)
	if bad != 0 {
		t.Errorf("%d of %d walks disagree with the shadow depth; first: %s", bad, steps, first)
	}
}
