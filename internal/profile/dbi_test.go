package profile

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// TestProfileDBIParity pins the static-vs-dynamic instrumentation bridge
// across every engine: on each workload, the fast tiers, per-instruction
// dispatch and the DBI engine must report the same call counts (same
// Increment snippet, different delivery) and exit code, and every table
// must sum exactly to its total. The DBI engine charges every cycle to the
// root row, records its translations and lowers one probe per function.
func TestProfileDBIParity(t *testing.T) {
	engines := []struct {
		name string
		g    Guest
	}{
		{"fast", Guest{}},
		{"slow", Guest{Dispatch: emu.DispatchSlow}},
		{"dbi", Guest{Engine: EngineDBI}},
	}
	for _, prog := range workload.Programs() {
		if prog.Name != "matmul" && prog.Name != "fib" && prog.Name != "jumptable" {
			continue
		}
		f, err := asm.Assemble(prog.Source, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Report
		for _, eng := range engines {
			t.Run(prog.Name+"/"+eng.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				eng.g.Obs = reg
				rep, err := Run(f, Options{Guest: eng.g, Funcs: prog.Funcs, Mode: codegen.ModeDeadRegister})
				if err != nil {
					t.Fatal(err)
				}
				if rep.ExitCode != prog.ExitCode {
					t.Errorf("exit code %d, want %d", rep.ExitCode, prog.ExitCode)
				}
				if ref == nil {
					ref = rep
				}
				for _, name := range prog.Funcs {
					if got, want := calls(t, rep, name), calls(t, ref, name); got != want || got == 0 {
						t.Errorf("%s: counted %d calls, fast engine %d", name, got, want)
					}
				}
				var sum uint64
				for _, r := range rep.Rows {
					sum += r.Cycles
					if eng.g.Engine == EngineDBI && r.Name != "_start" && r.Cycles != 0 {
						t.Errorf("%s: dbi mode attributed %d cycles (must all charge to root)", r.Name, r.Cycles)
					}
				}
				if sum != rep.TotalCycles || sum == 0 || rep.TotalInsts == 0 {
					t.Errorf("row cycles sum to %d, total is %d (%d instructions)", sum, rep.TotalCycles, rep.TotalInsts)
				}
				if eng.g.Engine != EngineDBI {
					return
				}
				if reg.Counter("emu.dbi.translations").Load() == 0 {
					t.Error("dbi profile run recorded no translations")
				}
				if got, want := reg.Counter("emu.dbi.probes").Load(), uint64(len(prog.Funcs)); got != want {
					t.Errorf("emu.dbi.probes = %d, want %d", got, want)
				}
			})
		}
	}
}

func calls(t *testing.T, rep *Report, name string) uint64 {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Name == name {
			return r.Calls
		}
	}
	t.Fatalf("no row %q", name)
	return 0
}

// TestProfileDBIRecursion repeats the recursion count check through the
// dynamic engine: 465 fib calls, exactly as the static profiler counts. It
// also pins the totals `rvdyn profile -engine dbi fib` and its `-novirt`
// form report:
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
		g := Guest{Engine: EngineDBI, NoCounterVirt: tc.raw}
		rep, err := Run(f, Options{Guest: g, Funcs: []string{"fib"}, Mode: tc.mode})
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
