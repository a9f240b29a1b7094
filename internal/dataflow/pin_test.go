package dataflow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// TestLivenessPin pins what liveness reports: an FNV-64a hash, per
// program, over every function's name and blocks, each block's LiveIn and
// LiveOut, and LiveBefore and DeadScratchX at every instruction address.
// The programs are the workload suite and the eight 200-function random
// programs of the rewrite-synth benchmark. The hashes were read before the
// analysis was restructured for fewer allocations; any change to a live
// set or to the scratch-register order shows here.
func TestLivenessPin(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	for _, p := range workload.Programs() {
		progs = append(progs, prog{p.Name, p.Source})
	}
	for seed := int64(1); seed <= 8; seed++ {
		progs = append(progs, prog{fmt.Sprintf("random%d", seed), workload.RandomProgram(seed, 200)})
	}
	want := map[string]uint64{
		"matmul":       0x877cd3e7eefc6d86,
		"jumptable":    0x3a86b30181d611b7,
		"tailcall":     0xb0c0c0f51a3a4125,
		"farcall":      0xaa78dbf3658501b1,
		"fib":          0x12bd06a349e582bc,
		"framepointer": 0xbf061ec941983f96,
		"random1":      0x538bd9874121a3fe,
		"random2":      0xeeffcef926543912,
		"random3":      0x33ddea5e32107806,
		"random4":      0x63bf57695a61344b,
		"random5":      0x53867b03eb0beab7,
		"random6":      0x863f6f3cd5f050bc,
		"random7":      0x8232635f63a75e13,
		"random8":      0xe13a3e9d65629760,
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			f, err := asm.Assemble(p.src, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := symtab.FromFile(f)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := parse.Parse(st, parse.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			put := func(vs ...uint64) {
				for _, v := range vs {
					h.Write(binary.LittleEndian.AppendUint64(nil, v))
				}
			}
			putSet := func(s riscv.RegSet) {
				var lo, hi uint64
				for r := riscv.Reg(0); r < 64; r++ {
					if s.Contains(r) {
						lo |= 1 << r
					}
				}
				if s.Contains(riscv.RegPC) {
					hi = 1
				}
				put(lo, hi)
			}
			for _, fn := range cfg.Funcs {
				h.Write([]byte(fn.Name))
				lv := Liveness(fn)
				for _, b := range fn.Blocks {
					put(b.Start, b.End)
					putSet(lv.LiveIn[b.Index])
					putSet(lv.LiveOut[b.Index])
					for _, inst := range b.Insts {
						put(inst.Addr)
						putSet(lv.LiveBefore(inst.Addr))
						dead := lv.DeadScratchX(inst.Addr)
						put(uint64(len(dead)))
						for _, r := range dead {
							put(uint64(r))
						}
					}
				}
			}
			got := h.Sum64()
			if got != want[p.name] {
				t.Errorf("liveness hash = %#x, want %#x", got, want[p.name])
			}
		})
	}
}
