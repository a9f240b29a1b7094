package dbi

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/proc"
)

// iblPingPongSource jumps through registers to ping and pong in turn, 64
// times each. The two targets sit iblEntries*2 bytes apart, so they hash to
// the same lookup-table slot and every jump evicts the other's entry.
const iblPingPongSource = `
	.text
	.globl _start
_start:
	li   s1, 64
	la   s2, ping
	la   s3, pong
loop:
	jr   s2
back_ping:
	jr   s3
back_pong:
	addi s1, s1, -1
	bnez s1, loop
	li   a0, 0
	li   a7, 93
	ecall

	.balign 2048
ping:
	j    back_ping
	.balign 2048
pong:
	j    back_pong
`

// TestIBLInsertSlotOnce: a refill records the slot on the target's
// translation only if the translation does not already list it. Two hot
// targets sharing a slot miss on every jump; each miss re-inserts, and the
// slot lists must stay at one entry instead of growing per miss.
func TestIBLInsertSlotOnce(t *testing.T) {
	f, err := asm.Assemble(iblPingPongSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ping, _ := f.Symbol("ping")
	pong, _ := f.Symbol("pong")
	if d := pong.Value - ping.Value; d != iblEntries*2 {
		t.Fatalf("pong - ping = %d, want %d (one lookup-table slot)", d, iblEntries*2)
	}
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := Attach(p, f, Options{Obs: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := e.Continue(); err != nil || ev.Kind != proc.EventExit || ev.ExitCode != 0 {
		t.Fatalf("run: %+v, %v", ev, err)
	}
	if m := reg.Counter("emu.dbi.ibl.misses").Load(); m < 2*64 {
		t.Fatalf("ibl.misses = %d, want every one of the 128 jumps to miss", m)
	}
	for _, a := range []uint64{ping.Value, pong.Value} {
		tr := e.trans[a]
		if tr == nil {
			t.Fatalf("no translation at %#x", a)
		}
		if n := len(tr.iblSlots); n > 1 {
			t.Errorf("translation at %#x lists %d lookup-table slots, want at most 1", a, n)
		}
	}
}
