package emu

import (
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/riscv"
)

// TestMemoryPageStraddle: fixed-width accesses that straddle a page boundary
// must split correctly across the two pages on both the read and write
// paths, and fault when either half is unmapped.
func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	m.Map(0x10000, 2*pageSize)
	boundary := uint64(0x10000 + pageSize)

	for _, addr := range []uint64{boundary - 7, boundary - 4, boundary - 1} {
		want := 0x1122334455667788 ^ addr
		if err := m.Write64(addr, want); err != nil {
			t.Fatalf("Write64(%#x): %v", addr, err)
		}
		got, err := m.Read64(addr)
		if err != nil {
			t.Fatalf("Read64(%#x): %v", addr, err)
		}
		if got != want {
			t.Errorf("Read64(%#x) = %#x, want %#x", addr, got, want)
		}
	}
	if err := m.Write32(boundary-2, 0xdeadbeef); err != nil {
		t.Fatalf("Write32 straddle: %v", err)
	}
	if v, err := m.Read32(boundary - 2); err != nil || v != 0xdeadbeef {
		t.Errorf("Read32 straddle = %#x, %v; want 0xdeadbeef", v, err)
	}
	if err := m.Write16(boundary-1, 0xabcd); err != nil {
		t.Fatalf("Write16 straddle: %v", err)
	}
	if v, err := m.Read16(boundary - 1); err != nil || v != 0xabcd {
		t.Errorf("Read16 straddle = %#x, %v; want 0xabcd", v, err)
	}

	// A straddle whose second half is unmapped must fault, and the fault
	// address must point at the unmapped page, not the mapped first half.
	end := uint64(0x10000 + 2*pageSize)
	if _, err := m.Read64(end - 4); err == nil {
		t.Error("Read64 into unmapped second page succeeded")
	} else if f, ok := err.(*MemFault); !ok || f.Addr != end {
		t.Errorf("fault = %v, want MemFault at %#x", err, end)
	}
	if err := m.Write64(end-4, 1); err == nil {
		t.Error("Write64 into unmapped second page succeeded")
	}
	// The partial write before the fault is the documented WriteBytes
	// behaviour (it mirrors a page-granular MMU); the mapped half holds
	// the written prefix.
}

// TestMemoryMapOverExistingPage: re-Mapping a live range must keep the
// existing pages and their contents (Map is idempotent, which is what lets
// the per-op page cache hold a *page forever) and map the new neighbour.
func TestMemoryMapOverExistingPage(t *testing.T) {
	m := NewMemory()
	m.Map(0x20000, pageSize)
	if err := m.Write64(0x20010, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	before := m.pageOf(0x20010)
	m.Map(0x20000, 2*pageSize)
	if v, err := m.Read64(0x20010); err != nil || v != 0xfeedface {
		t.Fatalf("Map over existing page lost contents: %#x, %v", v, err)
	}
	if m.pageOf(0x20010) != before {
		t.Error("Map replaced a live page; a cached *page would go stale")
	}
	// The newly mapped neighbour must be zeroed and accessible.
	if v, err := m.Read64(0x20000 + pageSize); err != nil || v != 0 {
		t.Errorf("new neighbour page = %#x, %v; want 0", v, err)
	}
}

// TestPageCacheWriteAfterInvalidation: a store through an op whose page
// cache already holds the code page must still trigger icache invalidation
// — the cache holds a translation, never coherence state. The loop's one sd
// first stores data into its own code page, which fills its page cache,
// then patches the next instruction of its own block through that entry;
// the patched code must execute on both dispatch paths.
func TestPageCacheWriteAfterInvalidation(t *testing.T) {
	src := fmt.Sprintf(`
	.text
_start:
	la t4, scratch        # first store: data on the code page
	li t5, 0
	la t2, patchme
	ld t3, 0(t2)          # patchme and the instruction after it
	srli t3, t3, 32
	slli t3, t3, 32
	li t6, %d             # encoding of "addi a0, zero, 42"
	or t3, t3, t6
	li s1, 2
loop:
	sd t5, 0(t4)          # pass 1 fills the page cache; pass 2 patches through it
patchme:
	addi a0, zero, 7      # replaced in pass 2, after its block was decoded
	mv t4, t2
	mv t5, t3
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	ecall
	.balign 8
scratch:
	.dword 0              # same section/page as the code above
`, patchWord(t))
	fast, slow := runBoth(t, src, asm.Options{NoCompress: true})
	requireSameState(t, fast, slow)
	if fast.ExitCode != 42 {
		t.Errorf("exit code %d, want 42 (patch through a cached page not honoured)", fast.ExitCode)
	}
}

// TestPageCacheBlockDemandZero: a block-tier op's first access touches a
// demand-zero page, and the same load and store ops then alternate between
// two pages, refilling their page caches on every access. The block tier
// must end in DispatchSlow's state.
func TestPageCacheBlockDemandZero(t *testing.T) {
	f, err := asm.Assemble(`
	.text
_start:
	li a0, 0
	li a1, 8192
	li a7, 222
	ecall                 # two fresh, untouched pages
	mv s0, a0
	li s1, 4096
	li s2, 40
	li s3, 0              # page offset: 0, 4096, 0, ...
	li s4, 0
loop:
	add t0, s0, s3
	ld t1, 24(t0)         # the first pass allocates the page
	addi t1, t1, 3
	sd t1, 24(t0)
	add s4, s4, t1
	xor s3, s3, s1
	addi s2, s2, -1
	bnez s2, loop
	andi a0, s4, 255
	li a7, 93
	ecall
`, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	var cpus [2]*CPU
	for i, d := range []Dispatch{DispatchBlock, DispatchSlow} {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		c.Dispatch = d
		if r := c.Run(0); r != StopExit {
			t.Fatalf("dispatch %d: stopped with %v (%v)", d, r, c.LastTrap())
		}
		cpus[i] = c
	}
	requireSameState(t, cpus[0], cpus[1])
	if got := cpus[0].tierInstret[tierBlock]; got == 0 {
		t.Error("no instruction retired in the block tier")
	}
	for _, off := range []uint64{24, pageSize + 24} {
		a := cpus[0].X[riscv.RegS0] + off
		fv, _ := cpus[0].Mem.Read64(a)
		sv, _ := cpus[1].Mem.Read64(a)
		if fv != sv || fv != 60 {
			t.Errorf("word at %#x: block %d, slow %d, want 60", a, fv, sv)
		}
	}
}
