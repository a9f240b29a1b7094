package parse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/symtab"
)

// TestParseRandomBytesNeverPanics: pointing the parser at arbitrary bytes
// (a stripped binary full of data misclassified as code — the paper's gap
// discussion is about exactly this uncertainty) must terminate without
// panicking, producing whatever partial CFG the bytes support.
func TestParseRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		text := make([]byte, 256+rng.Intn(2048))
		rng.Read(text)
		f := &elfrv.File{
			Entry: 0x10000,
			Sections: []*elfrv.Section{
				{Name: ".text", Type: elfrv.SHTProgbits,
					Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr,
					Addr:  0x10000, Data: text, Align: 4},
			},
		}
		st, err := symtab.FromFile(f)
		if err != nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Parse panicked: %v", trial, r)
				}
			}()
			cfg, err := Parse(st, Options{})
			if err != nil {
				return
			}
			// Exercise the results: loops, stats, lookups.
			for _, fn := range cfg.Funcs {
				fn.Extent()
				fn.ExitBlocks()
			}
			cfg.FuncContaining(0x10080)
		}()
	}
}

// TestParseHugeSymbolSizes: a function symbol's st_size comes unchecked from
// the file, and rvdynd parses uploaded binaries, so a size the file cannot
// back must not turn into an allocation: not a panic (1<<62 instructions is
// out of range for make), not a fatal out-of-memory (1<<33), and not a
// silent many-megabyte reservation per symbol.
func TestParseHugeSymbolSizes(t *testing.T) {
	const nFuncs = 16
	ret := []byte{0x67, 0x80, 0x00, 0x00} // jalr x0, 0(ra)
	var text []byte
	var syms []elfrv.Symbol
	sizes := []uint64{1 << 62, 1 << 33, 1 << 24, ^uint64(0)}
	for i := 0; i < nFuncs; i++ {
		syms = append(syms, elfrv.Symbol{Name: fmt.Sprintf("f%d", i),
			Value: 0x10000 + uint64(len(text)), Size: sizes[i%len(sizes)],
			Bind: elfrv.STBGlobal, Type: elfrv.STTFunc, Section: ".text"})
		text = append(text, ret...)
	}
	f := &elfrv.File{
		Entry: 0x10000,
		Sections: []*elfrv.Section{
			{Name: ".text", Type: elfrv.SHTProgbits,
				Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr,
				Addr:  0x10000, Data: text, Align: 4},
		},
		Symbols: syms,
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cfg, err := Parse(st, Options{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Funcs) < nFuncs {
		t.Errorf("parsed %d functions, want at least %d", len(cfg.Funcs), nFuncs)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("parsing %d bytes of code allocated %d bytes", len(text), got)
	}
}

// TestParseSelfReferentialCode: pathological shapes — a branch into its own
// middle byte, overlapping instruction streams — must not hang or panic.
func TestParseSelfReferentialCode(t *testing.T) {
	// jal x0, -2 lands mid-instruction; jal x0, 0 is a self-loop.
	cases := [][]byte{
		{0x6f, 0x00, 0x00, 0x00},             // jal x0, 0 (self loop)
		{0x6f, 0xf0, 0xff, 0xff},             // jal x0, huge negative
		{0x01, 0x00, 0x01, 0x00, 0x01, 0x00}, // c.nops then end
	}
	for i, text := range cases {
		f := &elfrv.File{
			Entry: 0x10000,
			Sections: []*elfrv.Section{
				{Name: ".text", Type: elfrv.SHTProgbits,
					Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr,
					Addr:  0x10000, Data: text, Align: 4},
			},
		}
		st, err := symtab.FromFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(st, Options{}); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}
