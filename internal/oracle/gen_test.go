package oracle

import (
	"testing"

	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/riscv"
)

// TestGeneratorEmitsFusablePairs closes the loop between the generator's
// fused-pair band and the emulator's macro-op fusion pass: across a handful
// of seeds, generated programs must make the rows the band targets
// (lui+addi, slli+add, and the counter increment's chain)
// actually fire in the block builder. (The grouping flag keeps
// forward-branch labels from splitting the idioms; if that regresses, they
// stop being adjacent and these counters go quiet.)
func TestGeneratorEmitsFusablePairs(t *testing.T) {
	kinds := []string{"emu.fuse.lui_addi", "emu.fuse.slli_add", "emu.fuse.lui_ld",
		"emu.fuse.lui_ld_addi", "emu.fuse.lui_ld_addi_sd"}
	reg := obs.NewRegistry()
	for seed := int64(1); seed <= 30; seed++ {
		f, err := BuildProgram(seed, 300)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c, err := emu.New(f, emu.P550())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Obs = emu.NewMetrics(reg)
		c.Run(1 << 20)
	}
	for _, k := range kinds {
		if reg.Counter(k).Load() == 0 {
			t.Errorf("%s never fired across 30 generated programs", k)
		}
	}
}

// TestGeneratorEmitsTraces closes the same loop one tier up: the counted
// backward-loop production must run long enough for full-run dispatch to
// compile traces, the self-modifying variant must sever a live trace
// mid-iteration, and the trace-compiled run must stay architecturally
// identical to the re-decoding reference interpreter — final registers,
// retirement count, and exit code. (The stepping lockstep can never catch a
// trace bug, because Run(1) dispatches per-instruction; this full-run
// differential is where the trace tier meets the oracle.)
func TestGeneratorEmitsTraces(t *testing.T) {
	reg := obs.NewRegistry()
	for seed := int64(1); seed <= 12; seed++ {
		f, err := BuildProgram(seed, 200)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cpu, err := emu.New(f, emu.P550())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cpu.Obs = emu.NewMetrics(reg)
		// The reference has no cost model, so its cycle CSR reads 0; pin the
		// emulator's to match. instret needs no pinning — both engines count
		// architectural retirement and agree at every read site.
		cpu.CounterFn = func(csr uint16) uint64 {
			if csr == 0xC02 {
				return cpu.Instret
			}
			return 0
		}
		if stop := cpu.Run(1 << 22); stop != emu.StopExit {
			t.Fatalf("seed %d: fast engine stopped with %v (%v)", seed, stop, cpu.LastTrap())
		}
		ref, err := NewRef(f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < 1<<22 && !ref.Exited; i++ {
			if _, err := ref.Step(); err != nil {
				t.Fatalf("seed %d: reference trapped: %v", seed, err)
			}
		}
		if !ref.Exited {
			t.Fatalf("seed %d: reference did not exit", seed)
		}
		if int(cpu.ExitCode) != ref.ExitCode {
			t.Errorf("seed %d: exit %d (traced) vs %d (reference)", seed, cpu.ExitCode, ref.ExitCode)
		}
		if cpu.Instret != ref.Instret {
			t.Errorf("seed %d: instret %d (traced) vs %d (reference)", seed, cpu.Instret, ref.Instret)
		}
		for i := 1; i < 32; i++ {
			if cpu.X[i] != ref.X[i] {
				t.Errorf("seed %d: x%d = %#x (traced) vs %#x (reference)", seed, i, cpu.X[i], ref.X[i])
			}
		}
	}
	for _, k := range []string{"emu.trace.builds", "emu.trace.passes", "emu.trace.severs"} {
		if reg.Counter(k).Load() == 0 {
			t.Errorf("%s never fired across the generated loop programs", k)
		}
	}
}

// TestGeneratorFreshPage: the seed-fresh-mmap-page corpus program really
// maps a page and loads from it, reading zero, before any store to it — the
// emulator's demand-zero path in lockstep against the eager reference.
func TestGeneratorFreshPage(t *testing.T) {
	f, err := BuildProgram(4, 80) // FuzzLockstep clamps uint16(60) to 80
	if err != nil {
		t.Fatal(err)
	}
	c, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	var page uint64
	c.SyscallTrace = func(num, _, _, _, ret uint64) {
		if num == 222 {
			page = ret
		}
	}
	var first string
	c.Trace = func(c *emu.CPU, in riscv.Inst) {
		a := c.X[in.Rs1&31] + uint64(in.Imm)
		if page == 0 || first != "" || a < page || a >= page+4096 {
			return
		}
		switch {
		case in.Mn == riscv.MnLD:
			if v, _ := c.Mem.Read64(a); v == 0 {
				first = "zero load"
			} else {
				first = "non-zero load"
			}
		case in.IsStore():
			first = "store"
		}
	}
	if stop := c.Run(1 << 20); stop != emu.StopExit {
		t.Fatalf("stopped with %v (%v)", stop, c.LastTrap())
	}
	if page == 0 || first != "zero load" {
		t.Fatalf("mmap page %#x, first access %q; want a zero load", page, first)
	}
	res, div, err := LockstepSeed(4, 80)
	if err != nil || div != nil || res.Stop != "exit" {
		t.Fatalf("lockstep: %+v, %v, %v", res, div, err)
	}
}
