package emu

import (
	"fmt"
	"runtime"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/riscv"
)

// allocBytes returns the host bytes allocated while fn runs (the
// runtime.MemStats.TotalAlloc delta).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDemandZeroPages pins the demand-zero contract of Memory: Map only
// reserves, a reserved page reads as zero and is reported as mapped, the
// first access of any kind allocates one page that every TLB kind then
// shares, and an access outside every reservation faults exactly as an
// eager address space would.
func TestDemandZeroPages(t *testing.T) {
	const base = 0x40000
	m := NewMemory()
	m.Map(base, 3*pageSize)
	allocated := func() (n int) {
		for _, p := range m.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("Map allocated %d pages, want 0 (reservation only)", n)
	}

	// Reserved pages are mapped whether or not they were touched.
	for i := uint64(0); i < 3; i++ {
		if !m.Mapped(base + i*pageSize + 8) {
			t.Errorf("reserved page %d not reported by Mapped", i)
		}
	}
	if m.Mapped(base+3*pageSize) || m.Mapped(base-1) {
		t.Error("Mapped reports a page outside the reservation")
	}
	if got := m.PageAddrs(); fmt.Sprint(got) != fmt.Sprint([]uint64{base, base + pageSize, base + 2*pageSize}) {
		t.Errorf("PageAddrs = %#x, want the three reserved pages", got)
	}

	// An untouched page reads as zero, through the read TLB and through Page.
	if v, err := m.Read64(base + 16); err != nil || v != 0 {
		t.Fatalf("untouched Read64 = %#x, %v; want 0", v, err)
	}
	if n := allocated(); n != 1 {
		t.Fatalf("after one read %d pages allocated, want 1", n)
	}
	for i, b := range m.Page(base + 2*pageSize) {
		if b != 0 {
			t.Fatalf("untouched Page byte %d = %#x, want 0", i, b)
		}
	}

	// Read then write: the write TLB must find the page the read allocated.
	if err := m.Write64(base+16, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(base + 16); v != 0x0123456789abcdef {
		t.Errorf("read after write = %#x", v)
	}
	if p := m.Page(base); p[16] != 0xef || p[23] != 0x01 {
		t.Errorf("Page view of the written word = % x", p[16:24])
	}

	// Write then fetch: the fetch TLB must see the written parcel.
	if err := m.Write16(base+pageSize+2, 0x4505); err != nil { // c.li a0, 1
		t.Fatal(err)
	}
	if v, err := m.Fetch16(base + pageSize + 2); err != nil || v != 0x4505 {
		t.Errorf("fetch after write = %#x, %v; want 0x4505", v, err)
	}
	if n := allocated(); n != 3 {
		t.Errorf("after touching every page %d allocated, want 3", n)
	}

	// Outside every reservation, right past the end of one: the load faults
	// at its own PC and names the unmapped address, as with eager pages.
	f, err := asm.Assemble(`
	.text
_start:
	li a0, 0
	li a1, 8192
	li a7, 222
	ecall
	li t0, 8192
	add t0, a0, t0
	ld t1, 0(a0)
	ld t1, -8(t0)
	ld t1, 0(t0)
`, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Run(0); r != StopTrap {
		t.Fatalf("stop = %v, want trap", r)
	}
	const want = "emu: trap at pc=0x10020: execute ld t1, 0(t0): " +
		"emu: memory fault: read at unmapped address 0x40002000"
	if got := c.LastTrap().Error(); got != want {
		t.Errorf("trap = %q\nwant  %q", got, want)
	}
}

// TestGuestMapHostMemory: a large guest mmap or brk reserves address
// space; the host allocates only the pages the guest touches.
func TestGuestMapHostMemory(t *testing.T) {
	const limit = 32 << 20
	for _, tc := range []struct{ name, grow string }{
		{"mmap", `
	li a0, 0
	li a1, 0x20000000        # 512 MiB
	li a7, 222
	ecall
	mv s0, a0`},
		{"brk", `
	li a0, 0
	li a7, 214
	ecall
	mv s0, a0
	li t0, 0x20000000        # 512 MiB below MmapBase
	add a0, s0, t0
	li a7, 214
	ecall`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := asm.Assemble(`
	.text
_start:`+tc.grow+`
	li t0, 0x1ff00000
	add t1, s0, t0
	ld a0, 8(s0)             # untouched: zero
	ld a1, 16(t1)
	li t2, 5
	sd t2, 8(s0)
	sd t2, 16(t1)
	ld t3, 8(s0)
	ld t4, 16(t1)
	add a0, a0, a1
	add a0, a0, t3
	add a0, a0, t4           # exit 10
	li a7, 93
	ecall
`, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var c *CPU
			n := allocBytes(func() {
				if c, err = New(f, P550()); err != nil {
					t.Fatal(err)
				}
				if r := c.Run(0); r != StopExit {
					t.Fatalf("stop = %v (%v)", r, c.LastTrap())
				}
			})
			if c.ExitCode != 10 {
				t.Errorf("exit = %d, want 10", c.ExitCode)
			}
			if n >= limit {
				t.Errorf("512 MiB guest %s cost %d MiB of host allocation, want < %d MiB",
					tc.name, n>>20, limit>>20)
			}
			t.Logf("host allocation: %d KiB", n>>10)
		})
	}
}

// TestEmuNewAllocBytes pins the emulator's set-up cost on a binary shaped
// like a rewritten one: trampolines 128 KiB above .text. The decode and
// superblock caches grow by chunk, on first fetch, and the stack is only
// reserved, so the cost follows what the guest touches rather than the span
// of the image. The same run shows that a guest store into code invalidates
// correctly whether its chunk was never fetched (cold) or fetched and cached
// (tramp).
func TestEmuNewAllocBytes(t *testing.T) {
	const limit = 256 << 10
	enc := func(in riscv.Inst) uint32 { return riscv.MustEncode(in) }
	src := fmt.Sprintf(`
	.text
_start:
	li s0, 40
loop:
	call tramp
	call hot
	addi s0, s0, -1
	bnez s0, loop
	la t0, cold
	li t1, %d                # ori a0, zero, 2
	sw t1, 0(t0)
	ebreak
	call cold
	mv s2, a0
	la t0, tramp
	li t1, %d                # addi s1, s1, 100
	sw t1, 0(t0)
	call tramp
	add a0, s1, s2           # 40 + 100 + 2
	li a7, 93
	ecall
gap:
	.zero 0x20000
	.balign 1024
tramp:
	addi s1, s1, 1
	ret
	.balign 1024
cold:
	ori a0, zero, 1
	ret
	.balign 1024
hot:
	ret
`, enc(riscv.Inst{Mn: riscv.MnORI, Rd: riscv.RegA0, Rs1: riscv.X0, Imm: 2}),
		enc(riscv.Inst{Mn: riscv.MnADDI, Rd: riscv.X9, Rs1: riscv.X9, Imm: 100}))
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	// Split .text at the gap into .text and a trampoline section, the
	// layout a static rewrite produces.
	text := f.Section(".text")
	gap, _ := f.Symbol("gap")
	tramp, _ := f.Symbol("tramp")
	cold, _ := f.Symbol("cold")
	data := text.Data
	text.Data = data[:gap.Value-text.Addr]
	f.Sections = append(f.Sections, &elfrv.Section{Name: ".tramp", Type: elfrv.SHTProgbits,
		Flags: elfrv.SHFAlloc | elfrv.SHFExecinstr, Addr: tramp.Value,
		Data: data[tramp.Value-text.Addr:], Align: 4})

	var c *CPU
	n := allocBytes(func() {
		if c, err = New(f, P550()); err != nil {
			t.Fatal(err)
		}
		if r := c.Run(0); r != StopBreakpoint {
			t.Fatalf("stop = %v (%v)", r, c.LastTrap())
		}
	})
	t.Logf("emu.New + Run allocated %d KiB", n>>10)
	if n >= limit {
		t.Errorf("emu.New + Run allocated %d KiB, want < %d KiB", n>>10, limit>>10)
	}
	// The store into cold's chunk landed between fetched code (tramp below,
	// hot above) but must not have created a cache chunk.
	if c.chunk(cold.Value, false) != nil {
		t.Error("a store into never-fetched code allocated a cache chunk")
	}
	if c.chunk(tramp.Value, false) == nil {
		t.Error("tramp's chunk was never allocated")
	}
	c.PC += 4 // past the ebreak
	if r := c.Run(0); r != StopExit {
		t.Fatalf("stop = %v (%v)", r, c.LastTrap())
	}
	if c.X[riscv.RegS2] != 2 {
		t.Errorf("cold code ran its original bytes: a0 = %d, want 2", c.X[riscv.RegS2])
	}
	if c.ExitCode != 142 {
		t.Errorf("exit = %d, want 142 (stale tramp decode executed if 43)", c.ExitCode)
	}
}

// TestWriteMemZeroStaysReserved: a host write of zeros over a page that is
// only reserved leaves it unallocated (it reads as zero either way), while
// nonzero bytes, and zeros over a page already touched, land as written.
func TestWriteMemZeroStaysReserved(t *testing.T) {
	c := &CPU{Mem: NewMemory()}
	const base = 0x40000
	c.Mem.Map(base, 3*pageSize)
	if err := c.WriteMem(base, make([]byte, 3*pageSize)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if p, ok := c.Mem.pages[base>>pageBits+i]; !ok || p != nil {
			t.Fatalf("page %d: allocated %v, reserved %v after a zero write; want reserved only", i, p != nil, ok)
		}
	}
	buf := make([]byte, pageSize+16) // the tail of page 0, page 1, the head of page 2
	buf[pageSize+8] = 7              // page 2's first byte
	if err := c.WriteMem(base+pageSize-8, buf); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, true} {
		if got := c.Mem.pages[base>>pageBits+uint64(i)] != nil; got != want {
			t.Fatalf("page %d allocated %v, want %v: only the page holding the nonzero byte", i, got, want)
		}
	}
	if v, _ := c.Mem.Read8(base + 2*pageSize); v != 7 {
		t.Fatalf("byte = %d, want 7", v)
	}
	if err := c.WriteMem(base+2*pageSize, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Mem.Read8(base + 2*pageSize); v != 0 {
		t.Fatalf("zero over an allocated page: byte = %d, want 0", v)
	}
	if err := c.WriteMem(base+3*pageSize, []byte{0}); err == nil {
		t.Fatal("zero write past the mapping succeeded; want a fault")
	}
}
