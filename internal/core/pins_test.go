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
// the mutatee with two FNV-64a hashes. The mem hash covers the whole
// address space (each mapped page's address and contents) after
// InstrumentFunctionFull, after Uninstrument, and after instrumenting
// again, together with the patch kind, the variable addresses,
// RelocatedAddr of every original instruction, and the instrumented run's
// exit code and count; any change to the patch area, entry bytes,
// jump-table slots, breakpoints or address layout shows there. The xlat
// hash covers the original address the provenance table gives every
// halfword of the mapped patch area after each instrumentation (the PC
// itself outside generated code).
func TestDynamicPins(t *testing.T) {
	entry := func(fn *parse.Function) []snippet.Point { return []snippet.Point{snippet.FuncEntry(fn)} }
	cases := []struct {
		name, src, fn string
		points        func(*parse.Function) []snippet.Point
		edges         func(*parse.Function) []snippet.EdgePoint
		mode          codegen.Mode
		attach        bool
		mem, xlat     uint64
	}{
		{"entry-dead", workload.MatmulSource(8, 2), "multiply", entry, nil, codegen.ModeDeadRegister, false, 0x64dff8a8c450abfc, 0x879e2410318faea5},
		{"exits-dead", workload.MatmulSource(8, 2), "multiply", snippet.FuncExits, nil, codegen.ModeDeadRegister, false, 0xf746ce33ecc37fdc, 0xacd7ccb838fc67a5},
		{"blocks-dead", workload.MatmulSource(8, 2), "multiply", snippet.BlockEntries, nil, codegen.ModeDeadRegister, false, 0x1c390fe951f64354, 0xbcaf8854f0f8b975},
		{"entry-spill", workload.MatmulSource(8, 2), "multiply", entry, nil, codegen.ModeSpillAlways, false, 0xb13b3a0242e67734, 0x2b30dd895d1e22a5},
		{"exits-spill", workload.MatmulSource(8, 2), "multiply", snippet.FuncExits, nil, codegen.ModeSpillAlways, false, 0xd8142c91bca67c24, 0xcf9d7b5d3ee115a5},
		{"blocks-spill", workload.MatmulSource(8, 2), "multiply", snippet.BlockEntries, nil, codegen.ModeSpillAlways, false, 0x9344624cf1d1692c, 0xb315ec137234af45},
		{"edges", workload.MatmulSource(6, 1), "multiply", nil, snippet.LoopBackEdges, codegen.ModeDeadRegister, false, 0xc03d7841b84282c3, 0xcee81b4a9c281625},
		{"jumptable", workload.JumpTableSource, "dispatch", snippet.BlockEntries, nil, codegen.ModeDeadRegister, false, 0x88df5dc665f8e390, 0x44662c9c7126eda5},
		{"trap", workload.TinyFuncSource, "tiny", entry, nil, codegen.ModeDeadRegister, false, 0x97b4a5a5648d437, 0xfa86bce086fe05f5},
		{"attach", workload.MatmulSource(8, 4), "multiply", entry, nil, codegen.ModeDeadRegister, true, 0x9a8e4459a852787e, 0x879e2410318faea5},
		{"attach-fib", workload.FibSource, "fib", snippet.BlockEntries, nil, codegen.ModeSpillAlways, true, 0x71f01274751a0b6f, 0x4d5535c59cb06da5},
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
			h, hx := fnv.New64a(), fnv.New64a()
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
					orig := pc
					if s, ok := p.Provenance().Lookup(pc); ok {
						orig = s.Orig
					}
					hx.Write(binary.LittleEndian.AppendUint64(nil, orig))
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
			if sum := h.Sum64(); sum != c.mem {
				t.Errorf("mem pin %#x, want %#x", sum, c.mem)
			}
			if sum := hx.Sum64(); sum != c.xlat {
				t.Errorf("xlat pin %#x, want %#x", sum, c.xlat)
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
