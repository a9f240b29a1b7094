package dataflow

import (
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

func parseFunc(t *testing.T, src, name string) *parse.Function {
	t.Helper()
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := cfg.FuncByName(name)
	if !ok {
		t.Fatalf("function %s not found", name)
	}
	return fn
}

const livenessProg = `
	.text
	.globl _start
_start:
	li a0, 0
	call f
	li a7, 93
	ecall

	.globl f
	.type f, @function
f:
	add t0, a0, a2    # reads a0,a2; writes t0
	add t1, t0, t0    # reads t0; writes t1
	beqz t1, f_skip
	add a0, t1, zero
f_skip:
	ret
	.size f, .-f
`

func TestLivenessBasic(t *testing.T) {
	fn := parseFunc(t, livenessProg, "f")
	lv := Liveness(fn)
	entry := fn.EntryBlock()

	in := lv.LiveIn[entry.Index]
	// a0 and a2 feed the first add: live at entry.
	if !in.Contains(riscv.RegA0) || !in.Contains(riscv.RegA2) {
		t.Errorf("entry live-in %v missing a0/a2", in)
	}
	// t0 and t1 are written before any read: dead at entry.
	if in.Contains(riscv.RegT0) || in.Contains(riscv.RegT1) {
		t.Errorf("entry live-in %v wrongly contains t0/t1", in)
	}
	// ra is needed by the eventual ret.
	if !in.Contains(riscv.RegRA) {
		t.Errorf("entry live-in %v missing ra", in)
	}

	// Dead registers at entry must include the scratch temporaries.
	dead := lv.DeadBefore(fn.Entry)
	for _, r := range []riscv.Reg{riscv.RegT0, riscv.RegT1, riscv.RegT2, riscv.RegT3} {
		if !dead.Contains(r) {
			t.Errorf("%v not dead at entry", r)
		}
	}
	if dead.Contains(riscv.RegA0) || dead.Contains(riscv.RegSP) {
		t.Errorf("a0/sp wrongly dead at entry: %v", dead)
	}
}

func TestLivenessMidBlock(t *testing.T) {
	fn := parseFunc(t, livenessProg, "f")
	lv := Liveness(fn)
	entry := fn.EntryBlock()
	// Before the second add (reads t0), t0 is live.
	second := entry.Insts[1]
	live := lv.LiveBefore(second.Addr)
	if !live.Contains(riscv.RegT0) {
		t.Errorf("t0 not live before its use: %v", live)
	}
	// a2 is no longer live after its last use in the first add (unlike
	// a0/a1, it is not a potential return register, so nothing keeps it
	// alive to the exit).
	if live.Contains(riscv.RegA2) {
		t.Errorf("a2 still live after last use: %v", live)
	}
}

func TestLivenessAcrossCall(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall

	.globl g
	.type g, @function
g:
	addi sp, sp, -16
	sd ra, 8(sp)
	sd s1, 0(sp)
	li s1, 7          # callee-saved: survives the call
	li t3, 9          # caller-saved: dies at the call
	call h
	add a0, a0, s1
	ld ra, 8(sp)
	ld s1, 0(sp)
	addi sp, sp, 16
	ret
	.size g, .-g

	.globl h
	.type h, @function
h:
	li a0, 1
	ret
	.size h, .-h
`
	fn := parseFunc(t, src, "g")
	lv := Liveness(fn)
	// Find the call instruction.
	var callAddr uint64
	for _, b := range fn.Blocks {
		if b.Purpose == parse.PurposeCall {
			callAddr = b.Last().Addr
		}
	}
	if callAddr == 0 {
		t.Fatal("no call block in g")
	}
	live := lv.LiveBefore(callAddr)
	if !live.Contains(riscv.RegS1) {
		t.Errorf("s1 (used after call) not live before call: %v", live)
	}
	if live.Contains(riscv.RegT3) {
		t.Errorf("t3 (caller-saved, dead after call) live before call: %v", live)
	}
}

// TestLivenessIntraFunctionCall pins the linked jump whose resolved target
// lies inside the calling function. Parse classifies `la t1, L; jalr ra,
// 0(t1)` as a call, but the code at L reads t0, which the ABI call model
// would kill: t0 must stay live up to the jalr, and nothing may be
// reported dead there that L reads. A call to the function's own entry is
// recursion and keeps the call model.
func TestLivenessIntraFunctionCall(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall

	.globl g
	.type g, @function
g:
	li t0, 5
	la t1, g_inner
	jalr ra, 0(t1)
	li t0, 9          # skipped: g_inner is where the jalr lands
g_inner:
	add a0, a0, t0
	beqz a0, g_done
	li t2, 1
	call g            # recursion: the call model applies
	add a0, a0, t2
g_done:
	ret
	.size g, .-g
`
	fn := parseFunc(t, src, "g")
	lv := Liveness(fn)
	var intra, recur uint64
	for _, b := range fn.Blocks {
		if b.Purpose != parse.PurposeCall {
			continue
		}
		if last := b.Last(); last.IsJALR() && last.Rs1 == riscv.RegT1 {
			intra = last.Addr
		} else {
			recur = last.Addr
		}
	}
	if intra == 0 || recur == 0 {
		t.Fatalf("want an intra-function call and a recursive call in g, got %#x / %#x", intra, recur)
	}
	live := lv.LiveBefore(intra)
	for _, r := range []riscv.Reg{riscv.RegT0, riscv.RegT1, riscv.RegA0} {
		if !live.Contains(r) {
			t.Errorf("%v not live before the intra-function jalr: %v", r, live)
		}
	}
	for _, r := range lv.DeadScratchX(intra) {
		if r == riscv.RegT0 {
			t.Errorf("t0 offered as dead scratch at the jalr although g_inner reads it")
		}
	}
	// The recursive call still kills the caller-saved set: t2 is read after
	// it returns but clobbered by the call, so it is dead before the call.
	if live := lv.LiveBefore(recur); live.Contains(riscv.RegT2) {
		t.Errorf("t2 live before the recursive call: %v", live)
	}

	// When nothing else in the function reaches the target, no block of the
	// caller covers it; the code there is unknown, so nothing is dead at the
	// jalr.
	src = `
	.text
	.globl _start
_start:
	li a7, 93
	ecall

	.globl h
	.type h, @function
h:
	la t1, h_inner
	jalr ra, 0(t1)
	j h_done
h_inner:
	add a0, a0, t0
h_done:
	ret
	.size h, .-h
`
	fn = parseFunc(t, src, "h")
	if _, ok := fn.BlockContaining(fn.Entry + 16); ok {
		t.Fatal("h_inner is reachable inside h; the shape needs an unreached target")
	}
	lv = Liveness(fn)
	calls := 0
	for _, b := range fn.Blocks {
		if b.Purpose == parse.PurposeCall {
			calls++
			if dead := lv.DeadScratchX(b.Last().Addr); len(dead) != 0 {
				t.Errorf("registers %v dead at a jalr into unparsed code of h", dead)
			}
		}
	}
	if calls != 1 {
		t.Errorf("h has %d call blocks, want the one jalr", calls)
	}
}

func TestDeadScratchOrdering(t *testing.T) {
	fn := parseFunc(t, livenessProg, "f")
	lv := Liveness(fn)
	scratch := lv.DeadScratchX(fn.Entry)
	if len(scratch) == 0 {
		t.Fatal("no dead scratch registers at entry")
	}
	// Preference order puts temporaries first.
	if scratch[0] != riscv.RegT0 && scratch[0] != riscv.RegT1 && scratch[0] != riscv.RegT2 {
		t.Errorf("first scratch = %v, want a temporary", scratch[0])
	}
}

func TestLivenessMatmulInnerLoop(t *testing.T) {
	// The paper's optimization hinges on instrumentation points having dead
	// registers available; verify the matmul inner-loop block has some.
	f, err := asm.Assemble(workload.MatmulSource(10, 1), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := symtab.FromFile(f)
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := cfg.FuncByName("multiply")
	lv := Liveness(fn)
	for _, b := range fn.Blocks {
		dead := lv.DeadScratchX(b.Start)
		if len(dead) == 0 {
			t.Errorf("block %v: no dead scratch registers (liveness too conservative)", b)
		}
	}
}

func TestStackHeightsFib(t *testing.T) {
	fn := parseFunc(t, workload.FibSource, "fib")
	sr := StackHeights(fn)

	if h, ok := sr.HeightAt(fn.Entry); !ok || h != 0 {
		t.Errorf("entry height = %d, %v", h, ok)
	}
	// Find the first call site: height must be -32, ra spilled to slot -8.
	var callAddr uint64
	for _, b := range fn.Blocks {
		if b.Purpose == parse.PurposeCall && callAddr == 0 {
			callAddr = b.Last().Addr
		}
	}
	if callAddr == 0 {
		t.Fatal("no call in fib")
	}
	h, ok := sr.HeightAt(callAddr)
	if !ok || h != -32 {
		t.Errorf("height before recursive call = %d, %v; want -32", h, ok)
	}
	ra, ok := sr.RALocAt(callAddr)
	if !ok || ra.InReg || ra.Slot != -8 {
		t.Errorf("ra location before call = %+v, %v; want spilled at -8", ra, ok)
	}
	if fs, ok := sr.FrameSizeAt(callAddr); !ok || fs != 32 {
		t.Errorf("frame size = %d, %v", fs, ok)
	}
}

func TestStackHeightsLeaf(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl leaf
	.type leaf, @function
leaf:
	addi a0, a0, 1
	ret
	.size leaf, .-leaf
`
	fn := parseFunc(t, src, "leaf")
	sr := StackHeights(fn)
	last := fn.Blocks[len(fn.Blocks)-1].Last()
	if h, ok := sr.HeightAt(last.Addr); !ok || h != 0 {
		t.Errorf("leaf height at ret = %d, %v", h, ok)
	}
	ra, ok := sr.RALocAt(last.Addr)
	if !ok || !ra.InReg {
		t.Errorf("leaf ra loc = %+v, %v; want in-register", ra, ok)
	}
}

func TestStackHeightJoinMismatch(t *testing.T) {
	// Two paths reaching a join with different heights must yield unknown.
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl odd
	.type odd, @function
odd:
	beqz a0, skip
	addi sp, sp, -16
skip:
	addi a1, a1, 1
	jr ra
	.size odd, .-odd
`
	fn := parseFunc(t, src, "odd")
	sr := StackHeights(fn)
	// The join block starts at "skip".
	var joinAddr uint64
	for _, b := range fn.Blocks {
		if len(b.In) == 2 {
			joinAddr = b.Start
		}
	}
	if joinAddr == 0 {
		t.Fatal("no join block found")
	}
	if _, ok := sr.HeightAt(joinAddr); ok {
		t.Error("join with conflicting heights reported a known height")
	}
}

func TestBackwardSlice(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl f
	.type f, @function
f:
	lui t0, 16        # in slice: defines t0
	addi t0, t0, 32   # in slice
	li t1, 99         # NOT in slice
	slli t2, a0, 3    # in slice: feeds t0 via add
	add t0, t0, t2    # in slice
	jalr zero, 0(t0)
	.size f, .-f
`
	fn := parseFunc(t, src, "f")
	jalr := fn.Blocks[0].Last()
	nodes := BackwardSlice(fn, jalr.Addr, riscv.RegT0)
	mns := map[riscv.Mnemonic]int{}
	for _, n := range nodes {
		mns[n.Inst().Mn]++
	}
	if mns[riscv.MnLUI] != 1 || mns[riscv.MnADDI] != 1 || mns[riscv.MnSLLI] != 1 || mns[riscv.MnADD] != 1 {
		t.Errorf("slice mnemonics = %v", mns)
	}
	// li t1 -> addi with rd=t1 must not appear.
	for _, n := range nodes {
		if n.Inst().Rd == riscv.RegT1 {
			t.Errorf("unrelated instruction in slice: %v", n.Inst())
		}
	}
}

func TestBackwardSliceAcrossBlocks(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl g
	.type g, @function
g:
	li t0, 5          # in slice (crosses block boundary)
	beqz a0, gskip
	addi t0, t0, 1    # in slice (one of two reaching defs)
gskip:
	add a1, t0, t0
	jr ra
	.size g, .-g
`
	fn := parseFunc(t, src, "g")
	var useAddr uint64
	for _, b := range fn.Blocks {
		for _, in := range b.Insts {
			if in.Mn == riscv.MnADD && in.Rd == riscv.RegA1 {
				useAddr = in.Addr
			}
		}
	}
	nodes := BackwardSlice(fn, useAddr, riscv.RegT0)
	if len(nodes) != 2 {
		for _, n := range nodes {
			t.Logf("  %v", n.Inst())
		}
		t.Errorf("slice has %d nodes, want 2 (both reaching defs)", len(nodes))
	}
}

func TestForwardSlice(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl h
	.type h, @function
h:
	li t0, 1          # criterion
	add t1, t0, t0    # affected
	add t2, t1, zero  # affected transitively
	li t3, 7          # unaffected
	add t4, t3, t3    # unaffected
	jr ra
	.size h, .-h
`
	fn := parseFunc(t, src, "h")
	crit := fn.Blocks[0].Insts[0]
	if crit.Rd != riscv.RegT0 {
		t.Fatalf("unexpected first instruction %v", crit)
	}
	nodes := ForwardSlice(fn, crit.Addr)
	got := map[riscv.Reg]bool{}
	for _, n := range nodes {
		got[n.Inst().Rd] = true
	}
	if !got[riscv.RegT1] || !got[riscv.RegT2] {
		t.Errorf("forward slice missing t1/t2 defs: %v", got)
	}
	if got[riscv.RegT3] || got[riscv.RegT4] {
		t.Errorf("forward slice includes unaffected t3/t4: %v", got)
	}
}

func TestForwardSliceKill(t *testing.T) {
	src := `
	.text
	.globl _start
_start:
	li a7, 93
	ecall
	.globl k
	.type k, @function
k:
	li t0, 1          # criterion
	li t0, 2          # kills t0 (not a use)
	add t1, t0, t0    # must NOT be in slice
	jr ra
	.size k, .-k
`
	fn := parseFunc(t, src, "k")
	crit := fn.Blocks[0].Insts[0]
	nodes := ForwardSlice(fn, crit.Addr)
	if len(nodes) != 0 {
		for _, n := range nodes {
			t.Logf("  %v", n.Inst())
		}
		t.Errorf("slice should be empty after kill, got %d nodes", len(nodes))
	}
}

// TestLiveBeforeBlockStart checks LiveBefore's block-entry shortcut: at
// every block start it must return LiveIn[b], and both must equal the
// backward walk over the whole block from LiveOut[b] that LiveBefore runs
// for any other address.
func TestLiveBeforeBlockStart(t *testing.T) {
	srcs := map[string]string{}
	for _, p := range workload.Programs() {
		srcs[p.Name] = p.Source
	}
	for seed := int64(0); seed < 8; seed++ {
		srcs[fmt.Sprintf("random-%d", seed)] = workload.RandomProgram(seed, 10+int(seed)*5)
	}
	for name, src := range srcs {
		f, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			t.Fatalf("%s: assemble: %v", name, err)
		}
		st, err := symtab.FromFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := parse.Parse(st, parse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range cfg.Funcs {
			lv := Liveness(fn)
			for _, b := range fn.Blocks {
				walk := lv.LiveOut[b.Index]
				for i := len(b.Insts) - 1; i >= 0; i-- {
					walk = stepInstBackward(lv, b, i, walk)
				}
				if got := lv.LiveBefore(b.Start); !got.Equal(walk) || !lv.LiveIn[b.Index].Equal(walk) {
					t.Errorf("%s: %s %v: LiveBefore(start) %v, LiveIn %v, walk %v",
						name, fn.Name, b, got, lv.LiveIn[b.Index], walk)
				}
			}
		}
	}
}
