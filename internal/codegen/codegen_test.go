package codegen

import (
	"slices"
	"testing"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
)

// execSnippet encodes the generated instructions, appends an ebreak, loads
// them into the emulator at 0x10000 with a data page at 0x20000, and runs
// to the breakpoint. setup tweaks initial CPU state.
func execSnippet(t *testing.T, res *Result, setup func(*emu.CPU)) *emu.CPU {
	t.Helper()
	var code []byte
	for _, in := range res.Insts {
		w, err := riscv.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		code = append(code, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	eb := riscv.MustEncode(riscv.Inst{Mn: riscv.MnEBREAK})
	code = append(code, byte(eb), byte(eb>>8), byte(eb>>16), byte(eb>>24))
	f := &elfrv.File{
		Entry: 0x10000,
		Sections: []*elfrv.Section{
			{Name: ".text", Type: elfrv.SHTProgbits, Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr,
				Addr: 0x10000, Data: code, Align: 4},
			{Name: ".data", Type: elfrv.SHTProgbits, Flags: elfrv.SHFAlloc | elfrv.SHFWrite,
				Addr: 0x20000, Data: make([]byte, 4096), Align: 8},
		},
	}
	c, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(c)
	}
	if r := c.Run(100000); r != emu.StopBreakpoint {
		t.Fatalf("snippet stopped with %v (%v)", r, c.LastTrap())
	}
	return c
}

func v64(name string, addr uint64) *snippet.Var {
	return &snippet.Var{Name: name, Width: 8, Addr: addr}
}

func TestIncrementSnippet(t *testing.T) {
	counter := v64("counter", 0x20010)
	res, err := Generate(snippet.Increment(counter), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := execSnippet(t, res, func(c *emu.CPU) {
		if err := c.Mem.Write64(0x20010, 41); err != nil {
			t.Fatal(err)
		}
	})
	got, _ := c.Mem.Read64(0x20010)
	if got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestAssignExpression(t *testing.T) {
	a := v64("a", 0x20000)
	b := v64("b", 0x20008)
	dst := v64("dst", 0x20010)
	// dst = (a + b) * 3
	sn := snippet.Assign{Dst: dst, Src: snippet.BinOp{
		Op: snippet.OpMul,
		L:  snippet.BinOp{Op: snippet.OpAdd, L: a, R: b},
		R:  snippet.ConstInt{Val: 3},
	}}
	res, err := Generate(sn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := execSnippet(t, res, func(c *emu.CPU) {
		c.Mem.Write64(0x20000, 10)
		c.Mem.Write64(0x20008, 4)
	})
	got, _ := c.Mem.Read64(0x20010)
	if got != 42 {
		t.Errorf("dst = %d, want 42", got)
	}
}

func TestSoftwareMultiplyWithoutM(t *testing.T) {
	dst := v64("dst", 0x20000)
	sn := snippet.Assign{Dst: dst, Src: snippet.BinOp{
		Op: snippet.OpMul,
		L:  snippet.ConstInt{Val: 123},
		R:  snippet.ConstInt{Val: 77},
	}}
	res, err := Generate(sn, Options{Arch: riscv.ExtI})
	if err != nil {
		t.Fatal(err)
	}
	// No M-extension instruction may appear.
	for _, in := range res.Insts {
		if in.Mn.Ext() == riscv.ExtM {
			t.Fatalf("generated %v for an I-only target", in.Mn)
		}
	}
	c := execSnippet(t, res, nil)
	got, _ := c.Mem.Read64(0x20000)
	if got != 123*77 {
		t.Errorf("dst = %d, want %d", got, 123*77)
	}
	// With M the same snippet uses mul.
	res2, err := Generate(sn, Options{Arch: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	hasMul := false
	for _, in := range res2.Insts {
		if in.Mn == riscv.MnMUL {
			hasMul = true
		}
	}
	if !hasMul {
		t.Error("RV64GC target did not use mul")
	}
	if len(res2.Insts) >= len(res.Insts) {
		t.Errorf("mul version (%d insts) not shorter than soft version (%d)", len(res2.Insts), len(res.Insts))
	}
}

func TestComparisonOps(t *testing.T) {
	cases := []struct {
		op   snippet.BinOpKind
		a, b int64
		want uint64
	}{
		{snippet.OpEq, 5, 5, 1}, {snippet.OpEq, 5, 6, 0},
		{snippet.OpNe, 5, 6, 1}, {snippet.OpNe, 5, 5, 0},
		{snippet.OpLt, 4, 5, 1}, {snippet.OpLt, 5, 4, 0}, {snippet.OpLt, -1, 0, 1},
		{snippet.OpLe, 5, 5, 1}, {snippet.OpLe, 6, 5, 0},
		{snippet.OpGt, 6, 5, 1}, {snippet.OpGt, 5, 5, 0},
		{snippet.OpGe, 5, 5, 1}, {snippet.OpGe, 4, 5, 0},
		{snippet.OpSub, 50, 8, 42},
		{snippet.OpAnd, 0xff, 0x0f, 0x0f},
		{snippet.OpOr, 0xf0, 0x0f, 0xff},
		{snippet.OpXor, 0xff, 0x0f, 0xf0},
		{snippet.OpShl, 21, 1, 42},
		{snippet.OpShr, 84, 1, 42},
	}
	dst := v64("dst", 0x20000)
	for _, cse := range cases {
		sn := snippet.Assign{Dst: dst, Src: snippet.BinOp{
			Op: cse.op, L: snippet.ConstInt{Val: cse.a}, R: snippet.ConstInt{Val: cse.b}}}
		res, err := Generate(sn, Options{})
		if err != nil {
			t.Fatalf("%v: %v", cse.op, err)
		}
		c := execSnippet(t, res, nil)
		got, _ := c.Mem.Read64(0x20000)
		if got != cse.want {
			t.Errorf("%d %v %d = %d, want %d", cse.a, cse.op, cse.b, got, cse.want)
		}
	}
}

func TestIfSnippet(t *testing.T) {
	flag := v64("flag", 0x20000)
	out := v64("out", 0x20008)
	sn := snippet.If{
		Cond: snippet.BinOp{Op: snippet.OpGt, L: flag, R: snippet.ConstInt{Val: 10}},
		Then: snippet.Assign{Dst: out, Src: snippet.ConstInt{Val: 1}},
		Else: snippet.Assign{Dst: out, Src: snippet.ConstInt{Val: 2}},
	}
	res, err := Generate(sn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := execSnippet(t, res, func(c *emu.CPU) { c.Mem.Write64(0x20000, 99) })
	if got, _ := c.Mem.Read64(0x20008); got != 1 {
		t.Errorf("then-branch: out = %d, want 1", got)
	}
	c = execSnippet(t, res, func(c *emu.CPU) { c.Mem.Write64(0x20000, 3) })
	if got, _ := c.Mem.Read64(0x20008); got != 2 {
		t.Errorf("else-branch: out = %d, want 2", got)
	}
}

func TestParamRegSnippet(t *testing.T) {
	out := v64("out", 0x20000)
	// out = arg0 + arg1
	sn := snippet.Assign{Dst: out, Src: snippet.BinOp{
		Op: snippet.OpAdd, L: snippet.ParamReg{Index: 0}, R: snippet.ParamReg{Index: 1}}}
	res, err := Generate(sn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := execSnippet(t, res, func(c *emu.CPU) {
		c.X[riscv.RegA0] = 30
		c.X[riscv.RegA1] = 12
	})
	if got, _ := c.Mem.Read64(0x20000); got != 42 {
		t.Errorf("out = %d, want 42", got)
	}
}

func TestDeadRegisterModeAvoidsSpills(t *testing.T) {
	counter := v64("counter", 0x20000)
	sn := snippet.Increment(counter)
	dead := []riscv.Reg{riscv.RegT3, riscv.RegT4, riscv.RegT5}
	res, err := Generate(sn, Options{Mode: ModeDeadRegister, DeadRegs: dead})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spilled) != 0 {
		t.Errorf("dead-register mode spilled %v despite %d dead registers", res.Spilled, len(dead))
	}
	spill, err := Generate(sn, Options{Mode: ModeSpillAlways, DeadRegs: dead})
	if err != nil {
		t.Fatal(err)
	}
	if len(spill.Spilled) == 0 {
		t.Error("spill-always mode spilled nothing")
	}
	if len(spill.Insts) <= len(res.Insts) {
		t.Errorf("spill-always (%d insts) not longer than dead-register (%d)",
			len(spill.Insts), len(res.Insts))
	}
	// Both versions must compute the same result.
	c1 := execSnippet(t, res, nil)
	c2 := execSnippet(t, spill, nil)
	v1, _ := c1.Mem.Read64(0x20000)
	v2, _ := c2.Mem.Read64(0x20000)
	if v1 != 1 || v2 != 1 {
		t.Errorf("counters = %d, %d; want 1, 1", v1, v2)
	}
}

func TestSpillRestorePreservesRegisters(t *testing.T) {
	counter := v64("counter", 0x20000)
	res, err := Generate(snippet.Increment(counter), Options{Mode: ModeSpillAlways})
	if err != nil {
		t.Fatal(err)
	}
	magic := map[riscv.Reg]uint64{}
	c := execSnippet(t, res, func(c *emu.CPU) {
		for i, r := range res.Scratch {
			c.X[r] = 0xdead0000 + uint64(i)
			magic[r] = c.X[r]
		}
	})
	for r, want := range magic {
		if c.X[r] != want {
			t.Errorf("scratch %v not restored: %#x != %#x", r, c.X[r], want)
		}
	}
	// The stack pointer must balance.
	if c.X[riscv.RegSP] != emu.StackTop-64 {
		t.Errorf("sp unbalanced: %#x", c.X[riscv.RegSP])
	}
}

func TestCallFuncSnippet(t *testing.T) {
	// Place a tiny callee at 0x11000: it adds its two args into a global.
	calleeInsts := []riscv.Inst{
		{Mn: riscv.MnADD, Rd: riscv.RegA0, Rs1: riscv.RegA0, Rs2: riscv.RegA1, Rs3: riscv.RegNone},
		{Mn: riscv.MnLUI, Rd: riscv.RegT0, Rs1: riscv.RegNone, Rs2: riscv.RegNone, Rs3: riscv.RegNone, Imm: 0x20},
		{Mn: riscv.MnSD, Rd: riscv.RegNone, Rs1: riscv.RegT0, Rs2: riscv.RegA0, Rs3: riscv.RegNone, Imm: 0x100},
		{Mn: riscv.MnJALR, Rd: riscv.X0, Rs1: riscv.RegRA, Rs2: riscv.RegNone, Rs3: riscv.RegNone},
	}
	sn := snippet.CallFunc{Entry: 0x11000, Args: []snippet.Snippet{
		snippet.ConstInt{Val: 40}, snippet.ConstInt{Val: 2}}}
	res, err := Generate(sn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := execSnippet(t, res, func(c *emu.CPU) {
		var code []byte
		for _, in := range calleeInsts {
			w := riscv.MustEncode(in)
			code = append(code, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		c.Mem.Map(0x11000, 4096)
		if err := c.WriteMem(0x11000, code); err != nil {
			t.Fatal(err)
		}
		c.X[riscv.RegA0] = 7777 // must survive the call snippet
		c.X[riscv.RegRA] = 0x31337
	})
	if got, _ := c.Mem.Read64(0x20100); got != 42 {
		t.Errorf("callee result = %d, want 42", got)
	}
	if c.X[riscv.RegA0] != 7777 {
		t.Errorf("a0 not restored after call snippet: %d", c.X[riscv.RegA0])
	}
	if c.X[riscv.RegRA] != 0x31337 {
		t.Errorf("ra not restored: %#x", c.X[riscv.RegRA])
	}
}

func TestVariableWidths(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		v := &snippet.Var{Name: "v", Width: w, Addr: 0x20000}
		res, err := Generate(snippet.Increment(v), Options{})
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		c := execSnippet(t, res, func(c *emu.CPU) {
			c.Mem.Write64(0x20000, 0xffffffffffffffff) // all ones: wraps per width
		})
		got, _ := c.Mem.Read64(0x20000)
		// Incrementing all-ones wraps the low width bytes to zero and must
		// not disturb the rest.
		var want uint64
		switch w {
		case 1:
			want = 0xffffffffffffff00
		case 2:
			want = 0xffffffffffff0000
		case 4:
			want = 0xffffffff00000000
		case 8:
			want = 0
		}
		if got != want {
			t.Errorf("width %d: memory = %#x, want %#x", w, got, want)
		}
	}
}

func TestUnallocatedVariableError(t *testing.T) {
	v := &snippet.Var{Name: "v", Width: 8} // Addr == 0
	if _, err := Generate(snippet.Increment(v), Options{}); err == nil {
		t.Error("generation succeeded with unallocated variable")
	}
}

func TestSequenceSnippet(t *testing.T) {
	a := v64("a", 0x20000)
	b := v64("b", 0x20008)
	sn := snippet.Sequence{List: []snippet.Snippet{
		snippet.Assign{Dst: a, Src: snippet.ConstInt{Val: 20}},
		snippet.Assign{Dst: b, Src: snippet.BinOp{Op: snippet.OpAdd, L: a, R: a}},
		snippet.Increment(b),
	}}
	res, err := Generate(sn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := execSnippet(t, res, nil)
	av, _ := c.Mem.Read64(0x20000)
	bv, _ := c.Mem.Read64(0x20008)
	if av != 20 || bv != 41 {
		t.Errorf("a=%d b=%d, want 20, 41", av, bv)
	}
}

func TestWideConstantMaterialization(t *testing.T) {
	dst := v64("dst", 0x20000)
	for _, val := range []int64{0x123456789abcdef0 >> 1, -0x0fedcba987654321, 1 << 62} {
		sn := snippet.Assign{Dst: dst, Src: snippet.ConstInt{Val: val}}
		res, err := Generate(sn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := execSnippet(t, res, nil)
		if got, _ := c.Mem.Read64(0x20000); got != uint64(val) {
			t.Errorf("materialized %#x, want %#x", got, uint64(val))
		}
	}
}

// TestBufferMatchesGenerate lowers a mix of snippets back to back into one
// Buffer, in both modes and with and without dead registers, and checks
// each snippet's code equals what Generate returns for it alone.
func TestBufferMatchesGenerate(t *testing.T) {
	v := v64("v", 0x20010)
	snippets := []snippet.Snippet{
		snippet.Increment(v),
		snippet.If{Cond: snippet.BinOp{Op: snippet.OpLt, L: v, R: snippet.ConstInt{Val: 3}},
			Then: snippet.Increment(v), Else: snippet.AddTo(v, snippet.ConstInt{Val: 5})},
		snippet.Empty(),
		snippet.AddTo(v, snippet.BinOp{Op: snippet.OpMul, L: snippet.ParamReg{Index: 1}, R: snippet.ConstInt{Val: 1 << 40}}),
		snippet.CallFunc{Entry: 0x10000, Args: []snippet.Snippet{v}},
	}
	for _, opts := range []Options{
		{},
		{DeadRegs: []riscv.Reg{riscv.RegT0, riscv.RegT1, riscv.RegT2}},
		{Mode: ModeSpillAlways},
		{Arch: riscv.ExtI | riscv.ExtC},
	} {
		var b Buffer
		var ends []int
		for _, sn := range snippets {
			if err := b.Append(sn, opts); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, len(b.Insts))
		}
		start := 0
		for i, sn := range snippets {
			res, err := Generate(sn, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Insts[start:ends[i]]; !slices.Equal(got, res.Insts) {
				t.Errorf("%v, snippet %d: buffer holds %v, Generate %v", opts, i, got, res.Insts)
			}
			start = ends[i]
		}
		n := len(b.Insts)
		if err := b.Append(snippet.Increment(&snippet.Var{Name: "unallocated", Width: 8}), opts); err == nil || len(b.Insts) != n {
			t.Errorf("%v: a failed Append returned %v and left %d instructions, want an error and %d", opts, err, len(b.Insts), n)
		}
	}
}

// TestGenerateAllocs bounds what lowering a counter increment with dead
// registers allocates: the result with the buffer that lowers it, and the
// instruction slice. Before the two shared one allocation and the register
// lists lived in the buffer, it took five.
func TestGenerateAllocs(t *testing.T) {
	sn := snippet.Increment(v64("c", 0x212000))
	opts := Options{Mode: ModeDeadRegister, DeadRegs: []riscv.Reg{riscv.RegT0, riscv.RegT1}}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Generate(sn, opts); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Generate of an increment allocated %v times, want at most 2", n)
	}
}
