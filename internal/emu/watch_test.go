package emu

import (
	"testing"

	"rvdyn/internal/asm"
)

// watchProgram stores below, inside, and above the watched span of buf on
// each of three loop iterations; only the middle store overlaps the armed
// range [buf+8, buf+16).
const watchProgram = `
	.text
_start:
	la t0, buf
	li t1, 0
loop:
	sw t1, 0(t0)
	sd t1, 8(t0)
	sw t1, 16(t0)
	addi t1, t1, 1
	li t2, 3
	blt t1, t2, loop
	li a0, 7
	li a7, 93
	ecall
	.data
buf:
	.dword 0
	.dword 0
	.dword 0
`

type watchStop struct {
	pc, cycles, instret uint64
	addr, n             uint64
}

// runWatched runs watchProgram with the code watch armed over [buf+8,
// buf+16) and records every StopCodeWrite until exit.
func runWatched(t *testing.T, slow bool) (stops []watchStop, c *CPU) {
	t.Helper()
	f, err := asm.Assemble(watchProgram, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err = New(f, P550())
	if err != nil {
		t.Fatalf("new cpu: %v", err)
	}
	if slow {
		c.Dispatch = DispatchSlow
	}
	buf, ok := f.Symbol("buf")
	if !ok {
		t.Fatal("no buf symbol")
	}
	c.SetCodeWatch(buf.Value+8, buf.Value+16)
	for {
		switch r := c.Run(1_000_000); r {
		case StopCodeWrite:
			addr, n := c.CodeWrite()
			stops = append(stops, watchStop{c.PC, c.Cycles, c.Instret, addr, n})
			if len(stops) > 10 {
				t.Fatal("watch storm: more stops than stores")
			}
		case StopExit:
			return stops, c
		default:
			t.Fatalf("stopped with %v (trap: %v, pc=%#x)", r, c.LastTrap(), c.PC)
		}
	}
}

// TestCodeWatchParity pins the watch semantics — exactly one stop per
// overlapping store, PC past the store, span equal to the store — and that
// the fast superblock path and the slow per-instruction path agree on every
// architectural coordinate of every stop.
func TestCodeWatchParity(t *testing.T) {
	fast, cFast := runWatched(t, false)
	slow, cSlow := runWatched(t, true)

	if len(fast) != 3 {
		t.Fatalf("fast path: %d stops, want 3 (one per sd into the watch)", len(fast))
	}
	if len(fast) != len(slow) {
		t.Fatalf("stop counts differ: fast %d, slow %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("stop %d differs: fast %+v, slow %+v", i, fast[i], slow[i])
		}
		if fast[i].n != 8 {
			t.Errorf("stop %d: span %d bytes, want 8 (the sd)", i, fast[i].n)
		}
	}
	if cFast.ExitCode != 7 || cSlow.ExitCode != 7 {
		t.Errorf("exit codes: fast %d, slow %d, want 7", cFast.ExitCode, cSlow.ExitCode)
	}
	if cFast.Cycles != cSlow.Cycles || cFast.Instret != cSlow.Instret {
		t.Errorf("final counters differ: fast (%d cycles, %d insts), slow (%d, %d)",
			cFast.Cycles, cFast.Instret, cSlow.Cycles, cSlow.Instret)
	}
}

// TestCodeWatchDisarmed proves the zero-value watch never fires and that
// SetCodeWatch(0, 0) disarms a previously armed watch.
func TestCodeWatchDisarmed(t *testing.T) {
	f, err := asm.Assemble(watchProgram, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatalf("new cpu: %v", err)
	}
	buf, _ := f.Symbol("buf")
	c.SetCodeWatch(buf.Value, buf.Value+24)
	c.SetCodeWatch(0, 0)
	if r := c.Run(1_000_000); r != StopExit {
		t.Fatalf("stopped with %v, want exit", r)
	}
	if c.ExitCode != 7 {
		t.Errorf("exit code = %d, want 7", c.ExitCode)
	}
}

// TestCodeWatchDebuggerWriteDoesNotTrip: WriteMem is the debugger path and
// must not trip the guest-store watch.
func TestCodeWatchDebuggerWriteDoesNotTrip(t *testing.T) {
	f, err := asm.Assemble(watchProgram, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatalf("new cpu: %v", err)
	}
	buf, _ := f.Symbol("buf")
	c.SetCodeWatch(buf.Value+8, buf.Value+16)
	if err := c.WriteMem(buf.Value+8, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("WriteMem: %v", err)
	}
	if c.watchHit {
		t.Fatal("debugger WriteMem tripped the code watch")
	}
}

// TestCodeWatchStorePairSplit: when the first store of a fused sd pair
// hits the watch, the pair splits — the stop comes after the first store,
// with the PC on the second, exactly where per-instruction dispatch stops
// — and resuming runs the second store without another stop.
func TestCodeWatchStorePairSplit(t *testing.T) {
	const src = `
	.text
_start:
	la t0, buf
	li t1, 5
	sd t1, 0(t0)          # watched: the pair splits here
	sd t1, 8(t0)          # fused with the sd above, outside the watch
	li a0, 7
	li a7, 93
	ecall
	.data
buf:
	.dword 0
	.dword 0
`
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	buf, _ := f.Symbol("buf")
	var stops [2][]watchStop
	for i, d := range []Dispatch{DispatchBlock, DispatchSlow} {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		c.Dispatch = d
		c.SetCodeWatch(buf.Value, buf.Value+8)
		for r := c.Run(0); r != StopExit; r = c.Run(0) {
			if r != StopCodeWrite {
				t.Fatalf("dispatch %d: stopped with %v (%v)", d, r, c.LastTrap())
			}
			addr, n := c.CodeWrite()
			stops[i] = append(stops[i], watchStop{c.PC, c.Cycles, c.Instret, addr, n})
		}
	}
	if len(stops[0]) != 1 || len(stops[1]) != 1 || stops[0][0] != stops[1][0] {
		t.Fatalf("watch stops differ: fast %+v, slow %+v", stops[0], stops[1])
	}
	if s := stops[0][0]; s.addr != buf.Value || s.n != 8 {
		t.Errorf("stop span [%#x, +%d), want the first store [%#x, +8)", s.addr, s.n, buf.Value)
	}
}

// TestCodeWatchSyscallSpan: clock_gettime writes both words of its
// timespec in one ecall. With the timespec pointed at watched code, the
// single stop must report the full 16-byte span so a DBI engine
// invalidates translations over both words, on every dispatch tier.
func TestCodeWatchSyscallSpan(t *testing.T) {
	const src = `
	.text
_start:
	jal ra, victim
	la a1, victim
	li a0, 0
	li a7, 113            # clock_gettime: timespec lands on victim's code
	ecall
	li a0, 7
	li a7, 93
	ecall
victim:
	nop
	nop
	nop
	nop
	ret
`
	f, err := asm.Assemble(src, asm.Options{NoCompress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	victim, _ := f.Symbol("victim")
	for _, d := range []Dispatch{DispatchTrace, DispatchBlock, DispatchSlow} {
		c, err := New(f, P550())
		if err != nil {
			t.Fatal(err)
		}
		c.Dispatch = d
		c.SetCodeWatch(victim.Value, victim.Value+20)
		var spans [][2]uint64
		for r := c.Run(0); r != StopExit; r = c.Run(0) {
			if r != StopCodeWrite {
				t.Fatalf("dispatch %d: stopped with %v (%v)", d, r, c.LastTrap())
			}
			addr, n := c.CodeWrite()
			spans = append(spans, [2]uint64{addr, n})
		}
		if len(spans) != 1 || spans[0] != [2]uint64{victim.Value, 16} {
			t.Errorf("dispatch %d: watch spans %#x, want one [%#x, +16)", d, spans, victim.Value)
		}
	}
}
