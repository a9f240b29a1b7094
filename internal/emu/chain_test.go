package emu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
)

// TestChainSeverOnSMC: a loop block ending in an ecall chains to its
// fallthrough block through a cached successor link. On one iteration the
// syscall (clock_gettime) writes its timespec over a function that was
// executed earlier — cached decodes are dirtied *during the terminator*, so
// the block completes normally and the next chain probe finds its cached
// successor at a stale generation. The link must sever and the successor
// re-decode; both dispatch paths end in identical state.
//
// (A body store into code can never produce a sever: it early-returns
// mid-block and the stale source block is discarded, links and all. Only a
// terminator-driven invalidation leaves a completed block probing its own
// stale chain.)
func TestChainSeverOnSMC(t *testing.T) {
	src := `
	.text
_start:
	jal ra, victim        # decode and cache victim's block
	li s0, 0              # iteration counter
	li s2, 6              # iterations
	la s3, scratch
	la s4, victim
loop:
	li a7, 113            # clock_gettime
	li a0, 0
	mv a1, s3             # timespec -> scratch (data)
	li t2, 3
	bne s0, t2, doit
	mv a1, s4             # iteration 3: timespec lands on victim's code
	j doit                # jump (not fallthrough) so every path enters the
doit:                         # same ecall block — the one with the warm chain
	ecall                 # terminator of the chained block
	addi s0, s0, 1
	bne s0, s2, loop
	li a0, 5
	li a7, 93
	ecall

victim:
	nop                   # 16 bytes of decoded, never-again-executed code
	nop
	nop
	nop
	ret

	.data
	.balign 8
scratch:
	.zero 16
`
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if rf, rs := fast.Run(0), slow.Run(0); rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v", rf, rs)
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 5 {
		t.Errorf("exit code %d, want 5", fast.ExitCode)
	}
	if hits := reg.Counter("emu.chain.hits").Load(); hits == 0 {
		t.Error("chain hits = 0; the loop should dispatch through cached successor links")
	}
	if severs := reg.Counter("emu.chain.severs").Load(); severs == 0 {
		t.Error("chain severs = 0; patching a chained successor must sever the link")
	}
}

// fusePairProgram exercises every row of the fusion table in one binary:
// lui+addi, slli+add, and the superops — mul+add whose other add operand is
// the product register, slli+add+fld, addi+jal, addi+branch taken and not
// taken, and the counter increment plus its two unfinished prefixes, lui+ld
// and lui+ld+addi. Superops
// form at block build, so they run here outside any hot loop. The rest
// (auipc, the ld and sd pairs, compare+branch, auipc+jalr) has no row of
// its own.
const fusePairProgram = `
	.text
_start:
	lui t0, 5             # lui+addi pair
	addi t1, t0, 100
	la t2, vals           # auipc+addi pair
	ld a2, 0(t2)          # ld-pair (vals, vals+8)
	ld a3, 8(t2)
	li s4, 2
	slli s5, s4, 3        # slli+add pair
	add s6, s5, t2
	sd a2, 16(t2)         # sd-pair (vals+16, vals+24)
	sd a3, 24(t2)
	auipc s7, 0           # auipc+ld pair: reads this instruction's own bytes
	ld s8, 0(s7)
	auipc s10, 0          # auipc+addi pair (la emits absolute lui+addi, so
	addi s10, s10, 8      # the pc-relative form needs spelling out)
	mul t4, a2, a3        # mul+add superop: the add's other operand is
	add t5, t4, t4        # the product register itself
	slli t6, s4, 3        # slli+add+ld superop: loads vals+16, written
	add t6, t6, t2        # by the sd pair
	ld a5, 0(t6)
	slli t6, s4, 2        # slli+add+fld superop: loads vals+8
	add t6, t6, t2
	fld fa0, 0(t6)
	lui s1, %hi(ctr)      # counter increment
	ld s2, %lo(ctr)(s1)
	addi s2, s2, 7
	sd s2, %lo(ctr)(s1)
	lui s1, %hi(ctr)      # lui+ld+addi: the store goes elsewhere
	ld s2, %lo(ctr)(s1)
	addi s2, s2, 1
	sd s2, 8(t2)
	lui s1, %hi(ctr)      # lui+ld: no addi of the loaded register follows
	ld s3, %lo(ctr)(s1)
	li s0, 2
	j bump                # both passes run the one block at bump
bump:
	lui s1, %hi(ctr)      # the counter again, its page cache hitting on the
	ld s2, %lo(ctr)(s1)   # second pass: the inline store
	addi s2, s2, 1
	sd s2, %lo(ctr)(s1)
	addi s0, s0, -1
	bnez s0, bump
	li s11, 3
	j count               # addi+jal superop
count:
	addi s11, s11, -1     # addi+branch superop: taken twice, then not taken
	bnez s11, count
	slt t3, a2, a3        # compare+branch fused terminator
	bne t3, zero, less
	li s9, 0
	j join
less:
	li s9, 1
join:
	callfar fin           # auipc+jalr fused terminator (Section 3.2.3 rung)
	add a0, s9, a4
	li a7, 93
	ecall
fin:
	li a4, 30
	ret

	.data
	.balign 8
vals:
	.dword 11
	.dword 22
	.dword 0
	.dword 0
ctr:
	.dword 40
`

// TestFusedPairsEquivalence: the fusion program ends bit-identical on both
// dispatch paths and the block builder actually recognized each pair kind.
func TestFusedPairsEquivalence(t *testing.T) {
	f, err := asm.Assemble(fusePairProgram, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if rf, rs := fast.Run(0), slow.Run(0); rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v (fast trap %v)", rf, rs, fast.LastTrap())
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 31 { // s9=1 (11 < 22) + a4=30
		t.Errorf("exit code %d, want 31", fast.ExitCode)
	}
	for k := 0; k < numFuseKinds; k++ {
		if got := reg.Counter("emu.fuse." + fusions[k].name).Load(); got == 0 {
			t.Errorf("fuse kind %q never matched; program is meant to exercise all kinds", fusions[k].name)
		}
	}
	for _, k := range []uint8{otLuiLd, otLuiLdAddi, otCounter} {
		requireKind(t, fast, k)
	}
}

// requireKind fails unless some block c built has an op of the given kind,
// so a test meant for a fused op cannot pass on unfused ones.
func requireKind(t *testing.T, c *CPU, kind uint8) {
	t.Helper()
	for _, b := range cachedBlocks(c) {
		for _, op := range b.ops {
			if op.kind == kind {
				return
			}
		}
	}
	t.Errorf("no cached block has an op of kind %d", kind)
}

// TestFuseIndexedFieldPair pins the fusion choice on an indexed two-field
// load, slli; add; ld x, 0(t); ld y, 8(t): the slli+add fuse, and both
// loads stay unfused ld ops (only a lui head fuses with an integer load).
func TestFuseIndexedFieldPair(t *testing.T) {
	const src = `
	.text
_start:
	la t0, vals
	li t1, 1
	slli t2, t1, 3
	add t2, t2, t0
	ld a0, 0(t2)
	ld a1, 8(t2)
	add a0, a0, a1
	li a7, 93
	ecall
	.data
	.balign 8
vals:
	.dword 1
	.dword 20
	.dword 300
`
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fast.Obs = NewMetrics(reg)
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if rf, rs := fast.Run(0), slow.Run(0); rf != rs {
		t.Fatalf("stop reason: fast %v, slow %v (fast trap %v)", rf, rs, fast.LastTrap())
	}
	requireSameState(t, fast, slow)
	if fast.ExitCode != 320 {
		t.Errorf("exit code %d, want 320", fast.ExitCode)
	}
	if got := reg.Counter("emu.fuse.slli_add").Load(); got != 1 {
		t.Errorf("emu.fuse.slli_add = %d, want 1", got)
	}
	var kinds []uint8
	for _, b := range cachedBlocks(fast) {
		for _, op := range b.ops {
			kinds = append(kinds, op.kind)
		}
	}
	if want := []uint8{otSlliAdd, otLd, otLd}; !bytes.Contains(kinds, want) {
		t.Errorf("op kinds %v, want the run %v (slli_add, ld, ld)", kinds, want)
	}
}

// runBothTrap runs a program expected to trap on both paths and pins the trap
// PC and message to be identical, along with all architectural state. It
// returns the fast CPU.
func runBothTrap(t *testing.T, src string) *CPU {
	t.Helper()
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	rf, rs := fast.Run(0), slow.Run(0)
	if rf != StopTrap || rs != StopTrap {
		t.Fatalf("stop reason: fast %v, slow %v; want both StopTrap", rf, rs)
	}
	requireSameState(t, fast, slow)
	ft, st := fast.LastTrap(), slow.LastTrap()
	if ft == nil || st == nil {
		t.Fatalf("missing trap: fast %v, slow %v", ft, st)
	}
	if ft.Error() != st.Error() {
		t.Errorf("trap message differs:\n fast: %s\n slow: %s", ft.Error(), st.Error())
	}
	if !strings.Contains(ft.Error(), "unmapped") {
		t.Errorf("trap %q does not look like a memory fault", ft.Error())
	}
	return fast
}

// runBothStops runs a program on both paths, resuming after every
// StopCodeWrite, with watch (when non-zero) armed over the symbol of that
// name on both. Every stop must agree in reason, reported span and all
// architectural state. It returns the fast CPU and the code-write stops.
func runBothStops(t *testing.T, src, watch string) (*CPU, int) {
	t.Helper()
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fast, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	slow.Dispatch = DispatchSlow
	if watch != "" {
		sym, ok := f.Symbol(watch)
		if !ok {
			t.Fatalf("no symbol %q", watch)
		}
		fast.SetCodeWatch(sym.Value, sym.Value+8)
		slow.SetCodeWatch(sym.Value, sym.Value+8)
	}
	for writes := 0; ; writes++ {
		rf, rs := fast.Run(0), slow.Run(0)
		if rf != rs {
			t.Fatalf("stop %d: fast %v, slow %v (fast trap %v)", writes, rf, rs, fast.LastTrap())
		}
		requireSameState(t, fast, slow)
		if rf != StopCodeWrite {
			if rf != StopExit {
				t.Fatalf("stopped with %v: %v", rf, fast.LastTrap())
			}
			return fast, writes
		}
		fa, fn := fast.CodeWrite()
		sa, sn := slow.CodeWrite()
		if fa != sa || fn != sn {
			t.Fatalf("code write %d: fast [%#x,+%d), slow [%#x,+%d)", writes, fa, fn, sa, sn)
		}
	}
}

// TestFusedPairPartialFault: when a constituent of a fused op faults, the
// ones before it must have fully retired — cycles, instret, and registers
// reflect exactly the committed prefix, identical to sequential stepping.
// StackTop+pageSize is the end of the mapped stack region, so a load pair
// based just below it faults only on its second slot. The counter cases
// also pin the op's other exits: a watch hit and a store into cached code.
func TestFusedPairPartialFault(t *testing.T) {
	edge := StackTop + pageSize // first unmapped byte above the stack

	t.Run("ld_pair_second_faults", func(t *testing.T) {
		runBothTrap(t, fmt.Sprintf(`
	.text
_start:
	li t0, %d
	ld a0, 0(t0)          # mapped: last 8 bytes of the stack region
	ld a1, 8(t0)          # unmapped: faults after a0 is written
	li a7, 93
	ecall
`, edge-8))
	})
	t.Run("ld_pair_first_faults", func(t *testing.T) {
		runBothTrap(t, fmt.Sprintf(`
	.text
_start:
	li t0, %d
	ld a0, 0(t0)          # unmapped: nothing in the pair retires
	ld a1, 8(t0)
	li a7, 93
	ecall
`, edge))
	})
	t.Run("sd_pair_second_faults", func(t *testing.T) {
		runBothTrap(t, fmt.Sprintf(`
	.text
_start:
	li t0, %d
	li t1, 1234
	sd t1, 0(t0)          # mapped
	sd t1, 8(t0)          # unmapped: faults after the first store lands
	li a7, 93
	ecall
`, edge-8))
	})
	t.Run("slli_add_ld_tail_faults", func(t *testing.T) {
		runBothTrap(t, fmt.Sprintf(`
	.text
_start:
	li t0, %d
	li t1, 1
	slli t2, t1, 3        # slli+add+ld superop: the shift and the add
	add t2, t2, t0        # retire, then the load faults
	ld a0, 0(t2)
	li a7, 93
	ecall
`, edge-8))
	})
	t.Run("slli_add_fld_tail_faults", func(t *testing.T) {
		runBothTrap(t, fmt.Sprintf(`
	.text
_start:
	li t0, %d
	li t1, 1
	slli t2, t1, 3        # slli+add+fld superop, faulting tail
	add t2, t2, t0
	fld fa0, 0(t2)
	li a7, 93
	ecall
`, edge-8))
	})
	// The counter increment (lui; ld; addi; sd) is one op: a load
	// that faults leaves only the head retired, with the PC on the ld.
	t.Run("counter_load_faults", func(t *testing.T) {
		requireKind(t, runBothTrap(t, `
	.text
_start:
	lui t0, 0x7fefe       # the unmapped page below the stack
	ld t1, 8(t0)
	addi t1, t1, 1
	sd t1, 8(t0)
	li a7, 93
	ecall
`), otCounter)
	})
	t.Run("counter_straddle_faults", func(t *testing.T) {
		requireKind(t, runBothTrap(t, `
	.text
_start:
	lui t0, 0x7feff       # the lowest stack page; the load starts 4 bytes
	ld t1, -4(t0)         # below it, straddling in from an unmapped page
	addi t1, t1, 1
	sd t1, -4(t0)
	li a7, 93
	ecall
`), otCounter)
	})
	// The fused op stores where it loaded, so its store cannot fault once
	// its load succeeded. A store to another offset ends the fusion at
	// lui+ld+addi, and then the sd faults alone.
	t.Run("counter_store_faults", func(t *testing.T) {
		requireKind(t, runBothTrap(t, `
	.text
_start:
	lui t0, 0x7feff       # the lowest stack page: mapped
	ld t1, 0(t0)
	addi t1, t1, 1
	sd t1, -8(t0)         # unmapped: faults with the three before retired
	li a7, 93
	ecall
`), otLuiLdAddi)
	})
	// A counter under the code watch stops after every store, including
	// the ones whose page cache already hits.
	t.Run("counter_watch_hits", func(t *testing.T) {
		fast, writes := runBothStops(t, `
	.text
_start:
	li s0, 3
loop:
	lui t0, %hi(ctr)
	ld t1, %lo(ctr)(t0)
	addi t1, t1, 5
	sd t1, %lo(ctr)(t0)
	addi s0, s0, -1
	bnez s0, loop
	mv a0, t1
	li a7, 93
	ecall
	.data
	.balign 8
ctr:
	.dword 1
`, "ctr")
		if writes != 3 || fast.ExitCode != 16 {
			t.Errorf("%d code-write stops, exit %d; want 3 and 16", writes, fast.ExitCode)
		}
		requireKind(t, fast, otCounter)
	})
	// A counter whose slot is cached code rewrites it: each pass moves the
	// destination of the addi at slot up one register. The first store
	// lands before slot was ever decoded; the second, from an op whose page
	// cache already hits, must invalidate the decode; the third comes from
	// the op rebuilt after that invalidation.
	t.Run("counter_smc", func(t *testing.T) {
		fast, _ := runBothStops(t, `
	.text
_start:
	li a1, 0
	li a2, 0
	li a3, 0
	li s0, 3
	j loop                # every pass runs the one block at loop
loop:
	lui t0, %hi(slot)
	ld t1, %lo(slot)(t0)
	addi t1, t1, 128      # rd of the first instruction at slot, plus one
	sd t1, %lo(slot)(t0)
	jal ra, slot
	addi s0, s0, -1
	bnez s0, loop
	add a0, a1, a2
	add a0, a0, a3
	li a7, 93
	ecall
	.balign 8
slot:
	addi a0, zero, 5      # a0, then a1, a2, a3 as the counter rewrites it
	ret
`, "")
		if fast.ExitCode != 15 {
			t.Errorf("exit %d, want 15 (each rewritten addi ran once)", fast.ExitCode)
		}
		requireKind(t, fast, otCounter)
	})
	t.Run("auipc_ld_faults", func(t *testing.T) {
		runBothTrap(t, `
	.text
_start:
	auipc t0, 524287      # pc + 0x7ffff000: far above every mapping
	ld a0, 0(t0)          # faults; the auipc result must still be in t0
	li a7, 93
	ecall
`)
	})
}

// TestHostWriteRetiresOverlappedBlocks: a write from outside the process
// (WriteMem) over a block no trace copied retires that block alone — the
// generation stays, the other blocks survive — and starts a new profile
// epoch; a write over a block a trace copied bumps the generation.
func TestHostWriteRetiresOverlappedBlocks(t *testing.T) {
	f, err := asm.Assemble(`
	.text
_start:
	li   a0, 0
	li   t0, 300
loop:
	addi a0, a0, 1
	addi t0, t0, -1
	bnez t0, loop
	andi a0, a0, 63
	li   a7, 93
	ecall
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Run(0); r != StopExit {
		t.Fatalf("stopped with %v", r)
	}
	loop, _ := f.Symbol("loop")
	var head, tail *block
	for _, b := range cachedBlocks(c) {
		switch {
		case b.insts[0].Addr == loop.Value:
			head = b
		case b.insts[0].Addr > loop.Value:
			tail = b
		}
	}
	if head == nil || tail == nil || head.trc == nil || tail.inTrace {
		t.Fatalf("want a traced loop block and an untraced exit block (head %v, tail %v)", head, tail)
	}
	gen, epoch := c.icGen, c.epoch
	// The ecall: the write's window (it also drops the decode of the
	// instruction before it) stays inside the exit block.
	ecall := &tail.insts[len(tail.insts)-1]
	raw, _ := c.ReadMem(ecall.Addr, int(ecall.Size()))
	if err := c.WriteMem(ecall.Addr, raw); err != nil {
		t.Fatal(err)
	}
	if c.icGen != gen || tail.gen != retiredGen || head.gen != gen || c.epoch != epoch+1 {
		t.Fatalf("after a write over the exit block: generation %d→%d, exit block gen %d, loop block gen %d, epoch %d→%d",
			gen, c.icGen, tail.gen, head.gen, epoch, c.epoch)
	}
	raw, _ = c.ReadMem(head.insts[0].Addr, 4)
	if err := c.WriteMem(head.insts[0].Addr, raw); err != nil {
		t.Fatal(err)
	}
	if c.icGen != gen+1 {
		t.Fatalf("after a write over the traced loop block: generation %d→%d, want a bump", gen, c.icGen)
	}
}
