package profile

import (
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// TestProfileMatmul pins the acceptance criterion: the per-function rows
// partition the run exactly, so their cycle sum equals the emulator's
// retired-cycle counter, and the call counts match the workload's structure
// (reps=2 multiply calls, one init_matrices call).
func TestProfileMatmul(t *testing.T) {
	f, err := asm.Assemble(workload.MatmulSource(8, 2), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := Run(f, Options{
		Guest: Guest{Obs: reg},
		Funcs: []string{"multiply", "init_matrices"},
		Mode:  codegen.ModeDeadRegister,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExitCode != 0 {
		t.Fatalf("exit code = %d, want 0", rep.ExitCode)
	}
	byName := map[string]Row{}
	var sum uint64
	for _, r := range rep.Rows {
		byName[r.Name] = r
		sum += r.Cycles
	}
	if sum != rep.TotalCycles {
		t.Errorf("row cycles sum to %d, total is %d (must match exactly)", sum, rep.TotalCycles)
	}
	if got := byName["multiply"].Calls; got != 2 {
		t.Errorf("multiply calls = %d, want 2", got)
	}
	if got := byName["init_matrices"].Calls; got != 1 {
		t.Errorf("init_matrices calls = %d, want 1", got)
	}
	if byName["multiply"].Cycles == 0 {
		t.Error("multiply attributed zero cycles")
	}
	if _, ok := byName["_start"]; !ok {
		t.Errorf("no root row for _start; rows = %+v", rep.Rows)
	}
	// The dominant row of a matmul is the multiply kernel.
	if rep.Rows[0].Name != "multiply" {
		t.Errorf("hottest row = %s, want multiply", rep.Rows[0].Name)
	}
	// The run also fed the emulator's counters through the shared registry.
	if reg.Counter("emu.instructions_retired").Load() != rep.TotalInsts {
		t.Errorf("emu.instructions_retired = %d, want %d",
			reg.Counter("emu.instructions_retired").Load(), rep.TotalInsts)
	}
	if reg.Counter("profile.probe_hits").Load() == 0 {
		t.Error("no probe hits recorded")
	}
	out := rep.String()
	if !strings.Contains(out, "multiply") || !strings.Contains(out, "total") {
		t.Errorf("report table missing rows:\n%s", out)
	}
}

// TestProfileRecursion checks exclusive attribution under recursion: fib's
// self-calls must neither double-count cycles nor break the exact-sum
// property, and the call count must be the full recursion tree.
func TestProfileRecursion(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(f, Options{Funcs: []string{"fib"}, Mode: codegen.ModeDeadRegister})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	var fib Row
	for _, r := range rep.Rows {
		sum += r.Cycles
		if r.Name == "fib" {
			fib = r
		}
	}
	if sum != rep.TotalCycles {
		t.Errorf("row cycles sum to %d, total is %d", sum, rep.TotalCycles)
	}
	// The workload computes fib(12) naively: 2*F(13)-1 = 465 calls.
	if fib.Calls != 465 {
		t.Errorf("fib calls = %d, want 465", fib.Calls)
	}
	if fib.Cycles == 0 || fib.Cycles > rep.TotalCycles {
		t.Errorf("fib cycles = %d out of %d", fib.Cycles, rep.TotalCycles)
	}
}

// TestProfileTraceSpans checks the per-call spans: one span per completed
// call, on the virtual clock, nested within their callers.
func TestProfileTraceSpans(t *testing.T) {
	f, err := asm.Assemble(workload.MatmulSource(8, 2), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	rep, err := Run(f, Options{
		Funcs: []string{"multiply", "init_matrices"},
		Mode:  codegen.ModeDeadRegister,
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	var spans int
	for _, ev := range evs {
		if ev.Cat != "profile.call" {
			continue
		}
		spans++
		if ev.Dur < 0 || ev.TS < 0 {
			t.Errorf("span %s has negative time: ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
	}
	if spans != 3 {
		t.Errorf("got %d profile.call spans, want 3 (2 multiply + 1 init)", spans)
	}
	if rep.TotalCycles == 0 {
		t.Error("traced run retired no cycles")
	}
}
