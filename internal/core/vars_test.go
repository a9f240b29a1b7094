package core

import (
	"testing"

	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// TestVarAreaOverflow: the 8,193rd 8-byte variable fills the first 64 KiB
// of the variable area; it must land on mapped memory, and a probe counting
// into it must see every fib call. The first 8,192 keep their addresses.
func TestVarAreaOverflow(t *testing.T) {
	b := open(t, workload.FibSource)
	fn, _ := b.FindFunction("fib")
	p, err := b.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	first := p.NewVar("v0", 8)
	for i := 1; i < 8192; i++ {
		if v := p.NewVar("v", 8); v.Addr != first.Addr+uint64(8*i) {
			t.Fatalf("variable %d at %#x, want %#x", i, v.Addr, first.Addr+uint64(8*i))
		}
	}
	v := p.NewVar("calls", 8)
	if !p.CPU().Mem.Mapped(v.Addr) {
		t.Fatalf("variable 8192 at %#x is not mapped", v.Addr)
	}
	if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
		snippet.Increment(v), codegen.ModeDeadRegister); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil || ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("ev=%+v err=%v", ev, err)
	}
	if got, _ := p.ReadVar(v); got != 465 {
		t.Errorf("fib calls = %d, want 465", got)
	}
}
