package stackwalk

import (
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/proc"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// stopAt runs the workload under process control until the named function's
// entry and returns the walker ingredients.
func stopAt(t *testing.T, src, fnName string) (*parse.CFG, *proc.Process) {
	t.Helper()
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := f.Symbol(fnName)
	if !ok {
		t.Fatalf("no symbol %s", fnName)
	}
	if _, err := p.InsertBreakpoint(sym.Value); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventBreakpoint {
		t.Fatalf("never reached %s: %+v", fnName, ev)
	}
	return cfg, p
}

func names(frames []Frame) []string {
	var out []string
	for _, f := range frames {
		out = append(out, f.FuncName)
	}
	return out
}

func TestWalkNestedCalls(t *testing.T) {
	// Stop in spin: the stack is spin <- level3 <- level2 <- level1 <- _start.
	cfg, p := stopAt(t, workload.FramePointerSource, "spin")
	w := New(cfg, p, nil)
	frames, err := w.Walk()
	if err != nil {
		t.Fatal(err)
	}
	got := names(frames)
	want := []string{"spin", "level3", "level2", "level1", "_start"}
	if len(got) != len(want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestWalkRecursive(t *testing.T) {
	// Break at fib entry; after several recursive calls the stack must be a
	// run of fib frames over _start. Run until a deep hit.
	cfg, p := stopAt(t, workload.FibSource, "fib")
	// Continue a few stops to get depth.
	for i := 0; i < 30; i++ {
		ev, err := p.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != proc.EventBreakpoint {
			t.Fatalf("unexpected %+v", ev)
		}
	}
	frames, err := New(cfg, p, nil).Walk()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("only %d frames: %v", len(frames), names(frames))
	}
	for i := 0; i < len(frames)-1; i++ {
		if frames[i].FuncName != "fib" {
			t.Errorf("frame %d = %q, want fib (all: %v)", i, frames[i].FuncName, names(frames))
		}
	}
	if frames[len(frames)-1].FuncName != "_start" {
		t.Errorf("outermost frame = %q", frames[len(frames)-1].FuncName)
	}
	// Stack pointers must strictly increase outward.
	for i := 1; i < len(frames); i++ {
		if frames[i].SP < frames[i-1].SP {
			t.Errorf("frame %d sp %#x < frame %d sp %#x", i, frames[i].SP, i-1, frames[i-1].SP)
		}
	}
}

func TestInnermostLeafFrame(t *testing.T) {
	// Stopped at the entry of spin (a leaf that has not yet saved ra), the
	// walker must use the in-register return address.
	cfg, p := stopAt(t, workload.FramePointerSource, "spin")
	frames, err := New(cfg, p, nil).Walk()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("frames: %v", names(frames))
	}
	if frames[0].FuncName != "spin" || frames[1].FuncName != "level3" {
		t.Errorf("top frames = %v", names(frames)[:2])
	}
	if frames[0].Stepper != "stack-height" {
		t.Errorf("leaf stepped by %q, want stack-height", frames[0].Stepper)
	}
}

func TestFramePointerStepperAlone(t *testing.T) {
	// Force the FP stepper only: it can walk the fp-maintaining part of the
	// chain (level2 -> level1) but not the fp-less level3.
	cfg, p := stopAt(t, workload.FramePointerSource, "level3")
	// Step to just after level3's prologue? Simpler: stop at level2 in a
	// fresh process and walk with FP only from inside level2's body.
	_ = cfg
	_ = p
	cfg2, p2 := stopAt(t, workload.FramePointerSource, "spin")
	w := New(cfg2, p2, nil)
	w.Steppers = []Stepper{&FramePointerStepper{}}
	frames, err := w.Walk()
	if err != nil {
		t.Fatal(err)
	}
	// At spin entry fp still holds level2's frame (level3 did not touch
	// it), so the FP chain yields level2 -> level1 ancestry even though it
	// misattributes the intermediate frames; at minimum it must not crash
	// and must terminate.
	if len(frames) == 0 || len(frames) > 8 {
		t.Errorf("fp-only walk: %v", names(frames))
	}
}

func TestWalkFromRawEmulator(t *testing.T) {
	// The walker works over anything satisfying Target; use an attached
	// process stopped mid-run by budget.
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := symtab.FromFile(f)
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(2000)
	if cpu.Exited {
		t.Skip("program too short")
	}
	p := proc.Attach(cpu, f)
	frames, err := New(cfg, p, nil).Walk()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	_ = elfrv.File{}
}
