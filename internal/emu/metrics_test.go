package emu

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// TestSyscallTraceExitRet pins the hook's ret convention: ret is the value
// the syscall returns in A0 for every syscall, and exit syscalls — which
// never return — report ret == 0 with the exit status in a0. An earlier
// version reported ret == a0 on the exit path, making ret mean two
// different things depending on the syscall number.
func TestSyscallTraceExitRet(t *testing.T) {
	f, err := asm.Assemble(`
	.text
_start:
	# write(1, msg, 5)
	li a0, 1
	la a1, msg
	li a2, 5
	li a7, 64
	ecall
	# exit(7)
	li a0, 7
	li a7, 93
	ecall
	.data
msg:
	.asciz "hello"
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ num, a0, a1, a2, ret uint64 }
	var trace []rec
	c.SyscallTrace = func(num, a0, a1, a2, ret uint64) {
		trace = append(trace, rec{num, a0, a1, a2, ret})
	}
	if r := c.Run(0); r != StopExit {
		t.Fatalf("stopped with %v", r)
	}
	if len(trace) != 2 {
		t.Fatalf("traced %d syscalls, want 2", len(trace))
	}
	w := trace[0]
	if w.num != 64 || w.ret != 5 {
		t.Errorf("write record = %+v, want num=64 ret=5", w)
	}
	e := trace[1]
	if e.num != 93 {
		t.Fatalf("exit record num = %d, want 93", e.num)
	}
	if e.a0 != 7 {
		t.Errorf("exit record a0 = %d, want 7 (the status)", e.a0)
	}
	if e.ret != 0 {
		t.Errorf("exit record ret = %d, want 0 (exit never returns a value)", e.ret)
	}
}

// TestMetricsCounters runs a self-modifying program with metrics attached
// and checks the obs counters agree with the architectural state.
func TestMetricsCounters(t *testing.T) {
	f, err := asm.Assemble(`
	.text
_start:
	li s0, 200
loop:
	addi s0, s0, -1
	bnez s0, loop
	call tgtfn         # first pass decodes and block-caches tgtfn
	# patch tgtfn's first instruction into a nop: a store into cached
	# code, which must bump the generation (invalidation #1)...
	la t0, tgtfn
	la t2, nopword
	lw t1, 0(t2)
	sw t1, 0(t0)
	call tgtfn         # re-decode and execute the patched code
	fence.i            # ...and an explicit flush (invalidation #2)
	li a0, 0
	li a7, 93
	ecall

	.globl tgtfn
	.type tgtfn, @function
tgtfn:
	addi zero, zero, 1
	ret
	.size tgtfn, .-tgtfn
	.data
nopword:
	.word 0x00000013
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Obs = NewMetrics(reg)
	if r := c.Run(0); r != StopExit {
		t.Fatalf("stopped with %v (%v)", r, c.LastTrap())
	}
	m := c.Obs
	if got := m.Instructions.Load(); got != c.Instret {
		t.Errorf("instructions counter = %d, Instret = %d", got, c.Instret)
	}
	if m.BlockHits.Load() == 0 {
		t.Error("no block-cache hits recorded for a 200-iteration loop")
	}
	if m.BlockBuilds.Load() == 0 {
		t.Error("no block builds recorded")
	}
	// One invalidation from the store into cached code, one from fence.i.
	if got := m.BlockInvalidations.Load(); got < 2 {
		t.Errorf("block invalidations = %d, want >= 2", got)
	}
	if got := m.Syscalls.Load(); got != 1 {
		t.Errorf("syscalls counter = %d, want 1", got)
	}
	if got := reg.Counter("emu.syscall.93").Load(); got != 1 {
		t.Errorf("per-number syscall counter = %d, want 1", got)
	}
}

// TestMetricsStateEquivalence: attaching metrics must not change a single
// bit of architectural state relative to the nil-sink run.
func TestMetricsStateEquivalence(t *testing.T) {
	src := `
	.text
_start:
	li s0, 0
	li s1, 50
sum:
	add s0, s0, s1
	addi s1, s1, -1
	bnez s1, sum
	mv a0, s0
	li a7, 93
	ecall
`
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(f, P550())
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(0)
	f2, _ := asm.Assemble(src, asm.Options{})
	metered, err := New(f2, P550())
	if err != nil {
		t.Fatal(err)
	}
	metered.Obs = NewMetrics(obs.NewRegistry())
	metered.Run(0)
	if plain.Instret != metered.Instret || plain.Cycles != metered.Cycles ||
		plain.ExitCode != metered.ExitCode || plain.X != metered.X {
		t.Fatalf("metrics changed execution: instret %d vs %d, cycles %d vs %d",
			plain.Instret, metered.Instret, plain.Cycles, metered.Cycles)
	}
}

// TestTierConservation: the per-tier counters attribute every retired
// instruction and cycle to exactly one tier. Over the suite binaries, at
// every Dispatch value, emu.tier.{slow,block,trace}.instret sum to
// Instret and .cycles to Cycles; DispatchSlow retires everything on the
// slow tier, DispatchBlock nothing on the trace tier, and the default
// retires something in traces on matmul.
func TestTierConservation(t *testing.T) {
	for _, p := range workload.Programs() {
		f, err := asm.Assemble(p.Source, asm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, d := range []Dispatch{DispatchTrace, DispatchBlock, DispatchSlow} {
			c, err := New(f, P550())
			if err != nil {
				t.Fatal(err)
			}
			c.Dispatch = d
			reg := obs.NewRegistry()
			c.Obs = NewMetrics(reg)
			// Two Runs, the first cut by a budget, so the counters are
			// published across a Run boundary too.
			c.Run(777)
			if r := c.Run(0); r != StopExit {
				t.Fatalf("%s dispatch %d: stopped with %v", p.Name, d, r)
			}
			var in, cy [numTiers]uint64
			for k, name := range []string{"slow", "block", "trace"} {
				in[k] = reg.Counter("emu.tier." + name + ".instret").Load()
				cy[k] = reg.Counter("emu.tier." + name + ".cycles").Load()
			}
			if s := in[0] + in[1] + in[2]; s != c.Instret {
				t.Errorf("%s dispatch %d: tier instret %v sum to %d, Instret %d", p.Name, d, in, s, c.Instret)
			}
			if s := cy[0] + cy[1] + cy[2]; s != c.Cycles {
				t.Errorf("%s dispatch %d: tier cycles %v sum to %d, Cycles %d", p.Name, d, cy, s, c.Cycles)
			}
			switch {
			case d == DispatchSlow && in[0] != c.Instret:
				t.Errorf("%s: DispatchSlow retired %v outside the slow tier", p.Name, in)
			case d == DispatchBlock && in[2] != 0:
				t.Errorf("%s: DispatchBlock retired %d in traces", p.Name, in[2])
			case d == DispatchTrace && p.Name == "matmul" && in[2] == 0:
				t.Errorf("matmul: no instruction retired in a trace")
			}
		}
	}
}
