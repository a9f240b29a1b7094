package profile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/profile"
	"rvdyn/internal/profile/sample"
	"rvdyn/internal/workload"
)

func workloadFile(t *testing.T, name string) (*elfrv.File, workload.Program) {
	t.Helper()
	for _, p := range workload.Programs() {
		if p.Name == name {
			f, err := asm.Assemble(p.Source, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return f, p
		}
	}
	t.Fatalf("no workload %q", name)
	return nil, workload.Program{}
}

// TestPinnedSampledPprof pins the exact pprof bytes the sampler writes for
// matmul and fib at period 500 on every engine, so a change to how a guest
// is launched, dispatched or compensated cannot move a single sample.
func TestPinnedSampledPprof(t *testing.T) {
	want := map[string]string{
		"matmul": "16352fcd80ca1b49c06c75d65b8d3ddc6cab165f497f53b09992e4485b1ccf6a",
		"fib":    "4f320a470ab24c54aba6a1295e56c743d095ea7a962a85ad3539e8544cf6e76e",
	}
	engines := map[string]profile.Guest{
		"fast":    {},
		"notrace": {Dispatch: emu.DispatchBlock},
		"slow":    {Dispatch: emu.DispatchSlow},
		"dbi":     {Engine: profile.EngineDBI},
	}
	for name, sum := range want {
		f, _ := workloadFile(t, name)
		for eng, g := range engines {
			p, err := sample.Run(f, sample.Options{Guest: g, Period: 500, Name: name})
			if err != nil {
				t.Fatalf("%s %s: %v", name, eng, err)
			}
			var buf bytes.Buffer
			if err := p.WritePprof(&buf); err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(h[:]); got != sum {
				t.Errorf("%s %s: pprof sha256 %s, want %s", name, eng, got, sum)
			}
		}
	}
}

// TestPinnedDBIReports pins the whole table the DBI engine's profile prints
// for fib and matmul: call counts, the root row carrying every cycle, and
// the virtualized and raw totals under both register-allocation modes.
func TestPinnedDBIReports(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  codegen.Mode
		raw   bool
		table string
		insts uint64
	}{
		{"fib", codegen.ModeDeadRegister, false, "" +
			"_start                        1           7118 100.00%\n" +
			"fib                         465              0   0.00%\n" +
			"total                                     7118 100.00%\n", 4879},
		{"fib", codegen.ModeDeadRegister, true, "" +
			"_start                        1          15940 100.00%\n" +
			"fib                         465              0   0.00%\n" +
			"total                                    15940 100.00%\n", 12771},
		{"fib", codegen.ModeSpillAlways, false, "" +
			"_start                        1           7118 100.00%\n" +
			"fib                         465              0   0.00%\n" +
			"total                                     7118 100.00%\n", 4879},
		{"fib", codegen.ModeSpillAlways, true, "" +
			"_start                        1          43833 100.00%\n" +
			"fib                         465              0   0.00%\n" +
			"total                                    43833 100.00%\n", 21608},
		{"matmul", codegen.ModeDeadRegister, false, "" +
			"_start                        1          29936 100.00%\n" +
			"multiply                      2              0   0.00%\n" +
			"init_matrices                 1              0   0.00%\n" +
			"total                                    29936 100.00%\n", 15624},
		{"matmul", codegen.ModeDeadRegister, true, "" +
			"_start                        1          33989 100.00%\n" +
			"multiply                      2              0   0.00%\n" +
			"init_matrices                 1              0   0.00%\n" +
			"total                                    33989 100.00%\n", 19671},
	} {
		f, prog := workloadFile(t, tc.name)
		g := profile.Guest{Engine: profile.EngineDBI, NoCounterVirt: tc.raw}
		rep, err := profile.Run(f, profile.Options{Guest: g, Funcs: prog.Funcs, Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		want := "FUNCTION                  CALLS         CYCLES    CYC%\n" + tc.table
		if got := rep.String(); got != want || rep.TotalInsts != tc.insts || rep.ExitCode != prog.ExitCode {
			t.Errorf("%s %v raw=%v: exit %d, %d instructions, table\n%s\nwant exit %d, %d instructions, table\n%s",
				tc.name, tc.mode, tc.raw, rep.ExitCode, rep.TotalInsts, got, prog.ExitCode, tc.insts, want)
		}
	}
}
