package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// TestDynamicPins pins every byte live-process instrumentation leaves in
// the mutatee: an FNV-64a hash over the whole address space (each mapped
// page's address and contents) after InstrumentFunctionFull, after
// Uninstrument, and after instrumenting again, together with the patch
// kind, the variable addresses, RelocatedAddr of every original
// instruction, TranslatePC of every halfword of the mapped patch area, and
// the instrumented run's exit code and count. The values were read on the
// code before live-process instrumentation was moved onto the rewriter's
// per-function step; any change to the patch area, entry bytes, jump-table
// slots, breakpoints or address layout shows here.
func TestDynamicPins(t *testing.T) {
	entry := func(fn *parse.Function) []snippet.Point { return []snippet.Point{snippet.FuncEntry(fn)} }
	cases := []struct {
		name, src, fn string
		points        func(*parse.Function) []snippet.Point
		edges         func(*parse.Function) []snippet.EdgePoint
		mode          codegen.Mode
		attach        bool
		want          uint64
	}{
		{"entry-dead", workload.MatmulSource(8, 2), "multiply", entry, nil, codegen.ModeDeadRegister, false, 0x5d9bc7b8bfc864c8},
		{"exits-dead", workload.MatmulSource(8, 2), "multiply", snippet.FuncExits, nil, codegen.ModeDeadRegister, false, 0x6589865c7129aec0},
		{"blocks-dead", workload.MatmulSource(8, 2), "multiply", snippet.BlockEntries, nil, codegen.ModeDeadRegister, false, 0x5132ddc7cd8994f8},
		{"entry-spill", workload.MatmulSource(8, 2), "multiply", entry, nil, codegen.ModeSpillAlways, false, 0xaf2b5d74b847afc},
		{"exits-spill", workload.MatmulSource(8, 2), "multiply", snippet.FuncExits, nil, codegen.ModeSpillAlways, false, 0x4f26ec80c11aee44},
		{"blocks-spill", workload.MatmulSource(8, 2), "multiply", snippet.BlockEntries, nil, codegen.ModeSpillAlways, false, 0xe2661f7dc4810cc0},
		{"edges", workload.MatmulSource(6, 1), "multiply", nil, snippet.LoopBackEdges, codegen.ModeDeadRegister, false, 0x13faa70cc24b7807},
		{"jumptable", workload.JumpTableSource, "dispatch", snippet.BlockEntries, nil, codegen.ModeDeadRegister, false, 0x2b9a2263ec4848a4},
		{"trap", workload.TinyFuncSource, "tiny", entry, nil, codegen.ModeDeadRegister, false, 0x9a51e34c76b7d437},
		{"attach", workload.MatmulSource(8, 4), "multiply", entry, nil, codegen.ModeDeadRegister, true, 0xe4490c2cb40230f2},
		{"attach-fib", workload.FibSource, "fib", snippet.BlockEntries, nil, codegen.ModeSpillAlways, true, 0x4e6408366f4b5147},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := open(t, c.src)
			fn, err := b.FindFunction(c.fn)
			if err != nil {
				t.Fatal(err)
			}
			var p *Process
			if c.attach {
				cpu, err := emu.New(b.File, emu.P550())
				if err != nil {
					t.Fatal(err)
				}
				cpu.Run(500)
				p = b.Attach(cpu)
			} else if p, err = b.Launch(emu.P550()); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			put := func(vs ...uint64) {
				for _, v := range vs {
					h.Write(binary.LittleEndian.AppendUint64(nil, v))
				}
			}
			mem := p.CPU().Mem
			hashMem := func() {
				for _, a := range mem.PageAddrs() {
					put(a)
					h.Write(mem.Page(a))
				}
			}
			v := p.NewVar("count", 8)
			w := p.NewVar("narrow", 4)
			put(v.Addr, w.Addr)
			instrument := func() {
				var pts []snippet.Point
				var eds []snippet.EdgePoint
				if c.points != nil {
					pts = c.points(fn)
				}
				if c.edges != nil {
					eds = c.edges(fn)
				}
				kind, err := p.InstrumentFunctionFull(fn, pts, eds, snippet.Increment(v), c.mode)
				if err != nil {
					t.Fatal(err)
				}
				put(uint64(kind))
				hashMem()
				for _, blk := range fn.Blocks {
					for _, in := range blk.Insts {
						na, ok := p.RelocatedAddr(in.Addr)
						put(in.Addr, na, b2u(ok))
					}
				}
				lo, _ := p.RelocatedAddr(fn.Entry)
				lo &^= 0xfff
				for pc := lo; mem.Mapped(pc); pc += 2 {
					put(p.TranslatePC(pc))
				}
			}
			instrument()
			if err := p.Uninstrument(fn); err != nil {
				t.Fatal(err)
			}
			hashMem()
			instrument()
			ev, err := p.Continue()
			if err != nil || ev.Kind != proc.EventExit {
				t.Fatalf("ev=%+v err=%v", ev, err)
			}
			got, err := p.ReadVar(v)
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(ev.ExitCode), got)
			t.Logf("exit %d, count %d", ev.ExitCode, got)
			if sum := h.Sum64(); sum != c.want {
				t.Errorf("pin %#x, want %#x", sum, c.want)
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
