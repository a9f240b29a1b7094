package profile

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// TestProfileDBIParity pins the static-vs-dynamic instrumentation bridge:
// RunDBI must report exactly the call counts Run reports on the same binary
// (same Increment snippet, different delivery), charge every cycle to the
// root row, and keep the exact-sum property.
func TestProfileDBIParity(t *testing.T) {
	f, err := asm.Assemble(workload.MatmulSource(8, 2), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Funcs: []string{"multiply", "init_matrices"},
		Mode:  codegen.ModeDeadRegister,
	}
	static, err := Run(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Obs = reg
	dyn, err := RunDBI(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ExitCode != static.ExitCode {
		t.Fatalf("exit codes differ: static %d, dbi %d", static.ExitCode, dyn.ExitCode)
	}
	calls := func(rep *Report, name string) uint64 {
		for _, r := range rep.Rows {
			if r.Name == name {
				return r.Calls
			}
		}
		t.Fatalf("no row %q", name)
		return 0
	}
	for _, name := range opts.Funcs {
		if s, d := calls(static, name), calls(dyn, name); s != d {
			t.Errorf("%s: static counted %d calls, dbi counted %d", name, s, d)
		}
	}
	var sum uint64
	for _, r := range dyn.Rows {
		sum += r.Cycles
		if r.Name != "_start" && r.Cycles != 0 {
			t.Errorf("%s: dbi mode attributed %d cycles (must all charge to root)", r.Name, r.Cycles)
		}
	}
	if sum != dyn.TotalCycles {
		t.Errorf("row cycles sum to %d, total is %d", sum, dyn.TotalCycles)
	}
	if dyn.TotalCycles == 0 || dyn.TotalInsts == 0 {
		t.Error("dbi run retired nothing")
	}
	if reg.Counter("emu.dbi.translations").Load() == 0 {
		t.Error("dbi profile run recorded no translations")
	}
	if reg.Counter("emu.dbi.probes").Load() != 2 {
		t.Errorf("emu.dbi.probes = %d, want 2", reg.Counter("emu.dbi.probes").Load())
	}
}

// TestProfileDBIRecursion repeats the recursion count check through the
// dynamic engine: 465 fib calls, exactly as the static profiler counts. It
// also pins the totals `rvdyn dbirun fib` and `dbirun -novirt fib` report:
// the native 4,879 instructions / 7,118 cycles when virtualized, and the
// raw counts the cache retires (translation, lookup stubs and the probe
// included) — 12,771 / 15,940 with dead-register scratch from liveness and
// returns resolved by their return chains, 21,608 / 43,833 when every probe
// spills and every return goes through a lookup stub that saves its scratch
// through CSRs (`-mode spill`). README and EXPERIMENTS.md quote
// these figures; a change to the translated code shape must update them.
func TestProfileDBIRecursion(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode          codegen.Mode
		raw           bool
		insts, cycles uint64
	}{
		{codegen.ModeDeadRegister, false, 4879, 7118},
		{codegen.ModeDeadRegister, true, 12771, 15940},
		{codegen.ModeSpillAlways, false, 4879, 7118},
		{codegen.ModeSpillAlways, true, 21608, 43833},
	} {
		rep, err := RunDBI(f, Options{Funcs: []string{"fib"}, Mode: tc.mode, NoCounterVirt: tc.raw})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Rows {
			if r.Name == "fib" && r.Calls != 465 {
				t.Errorf("%v raw=%v: fib calls = %d, want 465", tc.mode, tc.raw, r.Calls)
			}
		}
		if rep.TotalInsts != tc.insts || rep.TotalCycles != tc.cycles {
			t.Errorf("%v raw=%v: %d instructions / %d cycles, want %d / %d",
				tc.mode, tc.raw, rep.TotalInsts, rep.TotalCycles, tc.insts, tc.cycles)
		}
	}
}
