package dbi

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/patch"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// TestDBIOrigPCPin pins where translation-group bounds sit in the code
// cache: an FNV-64a hash of OrigPC (original address and ok) over every
// halfword of the cache after fib and matmul run to exit with an entry
// probe, in both scratch modes. The sampler and Detach read the cache
// through OrigPC, so any change to which cache PCs map back, or to where,
// shows here.
func TestDBIOrigPCPin(t *testing.T) {
	cases := []struct {
		name, src, fn string
		mode          codegen.Mode
		want          uint64
	}{
		{"fib-dead", workload.FibSource, "fib", codegen.ModeDeadRegister, 0x1bd8d2dc1a303269},
		{"fib-spill", workload.FibSource, "fib", codegen.ModeSpillAlways, 0x10eb8af0439664a9},
		{"matmul-dead", workload.MatmulSource(8, 2), "multiply", codegen.ModeDeadRegister, 0x98a8ca9ebc7fab22},
		{"matmul-spill", workload.MatmulSource(8, 2), "multiply", codegen.ModeSpillAlways, 0x85b17f5a8bc8a6e2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := asm.Assemble(c.src, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p, err := proc.Launch(f, nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Attach(p, f, Options{Mode: c.mode})
			if err != nil {
				t.Fatal(err)
			}
			sym, ok := f.Symbol(c.fn)
			if !ok {
				t.Fatalf("no symbol %s", c.fn)
			}
			if err := e.ProbeAt(sym.Value, snippet.Increment(e.NewVar("calls", 8))); err != nil {
				t.Fatal(err)
			}
			if ev, err := e.Continue(); err != nil || ev.Kind != proc.EventExit {
				t.Fatalf("ev=%+v err=%v", ev, err)
			}
			h := fnv.New64a()
			bounds := 0
			lo := patch.LayoutOf(f).Cache
			for pc := lo; pc < lo+defaultCacheSize; pc += 2 {
				orig, ok := e.OrigPC(pc)
				if ok {
					bounds++
				}
				h.Write(binary.LittleEndian.AppendUint64(nil, orig))
				h.Write([]byte{b2b(ok)})
			}
			t.Logf("%d group bounds", bounds)
			if sum := h.Sum64(); sum != c.want {
				t.Errorf("pin %#x, want %#x", sum, c.want)
			}
		})
	}
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}
