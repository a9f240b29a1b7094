package dbi

import (
	"fmt"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// fibFile assembles the fib workload computing fib(n) instead of fib(12).
func fibFile(t testing.TB, n int) *elfrv.File {
	t.Helper()
	src := strings.Replace(workload.FibSource, "li a0, 12", fmt.Sprintf("li a0, %d", n), 1)
	if src == workload.FibSource && n != 12 {
		t.Fatal(`fib source no longer loads its argument with "li a0, 12"`)
	}
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return f
}

// TestDBIContinueAllocsFlat: the lookup stubs retire in-cache without
// heap allocation, so a whole DBI run allocates the same whether fib makes
// 465 calls (n=12) or 3193 (n=16) — launch, attach and translation only.
func TestDBIContinueAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		f := fibFile(t, n)
		return testing.AllocsPerRun(3, func() {
			p, err := proc.Launch(f, emu.P550())
			if err != nil {
				t.Fatal(err)
			}
			e, err := Attach(p, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ev, err := e.Continue(); err != nil || ev.Kind != proc.EventExit {
				t.Fatalf("fib(%d): %+v, %v", n, ev, err)
			}
		})
	}
	a12, a16 := allocs(12), allocs(16)
	if d := a16 - a12; d < -16 || d > 16 {
		t.Errorf("allocations scale with indirect transfers: fib(12) %v, fib(16) %v", a12, a16)
	}
}

// attachFib launches fib(n) under a DBI engine with a counting probe at
// fib's entry, on the per-instruction slow path or the default fast tiers.
func attachFib(t *testing.T, f *elfrv.File, slow bool) *Engine {
	t.Helper()
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if slow {
		p.CPU().Dispatch = emu.DispatchSlow
	}
	e, err := Attach(p, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sym, _ := f.Symbol("fib")
	if err := e.ProbeAt(sym.Value, snippet.Increment(e.NewVar("calls", 8))); err != nil {
		t.Fatal(err)
	}
	return e
}

// sameDBIState reports the first difference between two engines' CPU
// state: registers, PC, raw and compensated counters, scratch CSRs and the
// in-cache lookup hit count.
func sameDBIState(a, b *Engine) string {
	ca, cb := a.p.CPU(), b.p.CPU()
	if ca.X != cb.X {
		return fmt.Sprintf("x regs: fast %v, slow %v", ca.X, cb.X)
	}
	if ca.F != cb.F || ca.FCSR != cb.FCSR {
		return "fp state differs"
	}
	if ca.PC != cb.PC {
		return fmt.Sprintf("pc: fast %#x, slow %#x", ca.PC, cb.PC)
	}
	if ca.Instret != cb.Instret || ca.Cycles != cb.Cycles {
		return fmt.Sprintf("raw counters: fast %d/%d, slow %d/%d", ca.Instret, ca.Cycles, cb.Instret, cb.Cycles)
	}
	da, db := a.Comp(), b.Comp()
	if da.ExtraInstret != db.ExtraInstret || da.ExtraCycles != db.ExtraCycles {
		return fmt.Sprintf("compensated counters: fast %d/%d, slow %d/%d",
			int64(ca.Instret)-da.ExtraInstret, int64(ca.Cycles)-da.ExtraCycles,
			int64(cb.Instret)-db.ExtraInstret, int64(cb.Cycles)-db.ExtraCycles)
	}
	if da.Scratch != db.Scratch {
		return fmt.Sprintf("scratch CSRs: fast %#x, slow %#x", da.Scratch, db.Scratch)
	}
	if da.IBLHits != db.IBLHits {
		return fmt.Sprintf("lookup hits: fast %d, slow %d", da.IBLHits, db.IBLHits)
	}
	return ""
}

// TestDBIFastSlowSliceSweep drives a DBI fib(10) run on the fast tiers and
// on DispatchSlow side by side in budget slices of every length k in
// 1..N, comparing full state at every slice boundary. Lookup stubs run
// inside blocks and traces, so slice ends land mid-stub, mid-block and
// mid-trace-pass; each must leave exactly the per-instruction state.
func TestDBIFastSlowSliceSweep(t *testing.T) {
	f := fibFile(t, 10)
	maxK := uint64(96)
	if testing.Short() {
		maxK = 16
	}
	for k := uint64(1); k <= maxK; k++ {
		fast, slow := attachFib(t, f, false), attachFib(t, f, true)
		for slice := 0; ; slice++ {
			evF, err := fast.ContinueBudget(k)
			if err != nil {
				t.Fatalf("k=%d slice %d: fast: %v", k, slice, err)
			}
			evS, err := slow.ContinueBudget(k)
			if err != nil {
				t.Fatalf("k=%d slice %d: slow: %v", k, slice, err)
			}
			if evF.Kind != evS.Kind {
				t.Fatalf("k=%d slice %d: stop kind: fast %v, slow %v", k, slice, evF.Kind, evS.Kind)
			}
			if d := sameDBIState(fast, slow); d != "" {
				t.Fatalf("k=%d slice %d: %s", k, slice, d)
			}
			if evF.Kind == proc.EventExit {
				if evF.ExitCode != 55 {
					t.Fatalf("k=%d: exit %d, want fib(10) = 55", k, evF.ExitCode)
				}
				break
			}
			if evF.Kind != proc.EventBudget {
				t.Fatalf("k=%d slice %d: stopped with %+v", k, slice, evF)
			}
		}
	}
}

// TestDBIDetachAfterExit: an exit that retires inside the cache — under
// Continue, or on one of the single steps Detach takes out of a mid-group
// stop — leaves a cache PC that Detach maps to where a native exit leaves
// it. A probe on the ecall puts it mid-group, so budget stops just before
// the exit land inside the probe group and Detach steps through the exit.
func TestDBIDetachAfterExit(t *testing.T) {
	f := fibFile(t, 10)
	fib, _ := f.Symbol("fib")
	ecall := fib.Value - 4 // _start ends with "li a7, 93; ecall" right before fib
	native, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := native.Continue(); err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("native: %+v, %v", ev, err)
	}
	want := native.PC()
	if want != fib.Value {
		t.Fatalf("native exit pc %#x, want the address after the ecall %#x", want, fib.Value)
	}
	launch := func() *Engine {
		p, err := proc.Launch(f, emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		e, err := Attach(p, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ProbeAt(ecall, snippet.Increment(e.NewVar("exits", 8))); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := launch()
	if ev, err := e.Continue(); err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("dbi: %+v, %v", ev, err)
	}
	total := e.p.CPU().Instret
	if err := e.Detach(); err != nil {
		t.Fatal(err)
	}
	if pc := e.p.PC(); pc != want {
		t.Fatalf("detach after exit: pc %#x, want %#x", pc, want)
	}

	steppedOut := 0
	for back := uint64(1); back <= 8; back++ {
		e := launch()
		if ev, err := e.ContinueBudget(total - back); err != nil || ev.Kind != proc.EventBudget {
			t.Fatalf("back=%d: %+v, %v", back, ev, err)
		}
		if err := e.Detach(); err != nil {
			t.Fatalf("back=%d: detach: %v", back, err)
		}
		if e.p.Exited() {
			steppedOut++
		} else if ev, err := e.p.Continue(); err != nil || ev.Kind != proc.EventExit {
			t.Fatalf("back=%d: native finish: %+v, %v", back, ev, err)
		}
		if pc := e.p.PC(); pc != want {
			t.Fatalf("back=%d: exit pc %#x, want %#x", back, pc, want)
		}
		if c := e.p.ExitCode(); c != 55 {
			t.Fatalf("back=%d: exit %d, want fib(10) = 55", back, c)
		}
	}
	if steppedOut == 0 {
		t.Fatal("no budget stop left Detach stepping through the exit")
	}
}

// TestTraceExitsChain: every op stream, trace or block, resolves its
// successor through its own cached links, so a DBI fib(18) run, whose
// traces end at every dbi.jt, goes to the block map about as often as it
// builds blocks, not once per trace dispatch.
func TestTraceExitsChain(t *testing.T) {
	e := attachFib(t, fibFile(t, 18), false)
	reg := obs.NewRegistry()
	e.p.CPU().Obs = emu.NewMetrics(reg)
	if ev, err := e.Continue(); err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("fib(18): %+v, %v", ev, err)
	}
	hits := reg.Counter("emu.block_cache.hits").Load()
	builds := reg.Counter("emu.block_cache.builds").Load()
	traces := reg.Counter("emu.trace.hits").Load()
	if builds == 0 || traces == 0 {
		t.Fatalf("block builds %d, trace dispatches %d: the fast tiers never engaged", builds, traces)
	}
	if hits > 4*builds {
		t.Errorf("emu.block_cache.hits = %d, want at most 4 x builds (%d); trace dispatches %d",
			hits, 4*builds, traces)
	}
}

// TestDBITierConservation: under the DBI engine the per-tier counters
// still account for every raw retired instruction and cycle, at every
// Dispatch value, whether the run goes in one Continue or in budget slices
// that stop inside chains and stubs. fib's returns resolve through their
// return chains, so traces run through them and hold most of the work.
func TestDBITierConservation(t *testing.T) {
	f := fibFile(t, 14)
	for _, d := range []emu.Dispatch{emu.DispatchTrace, emu.DispatchBlock, emu.DispatchSlow} {
		for _, slice := range []uint64{0, 37} {
			e := attachFib(t, f, false)
			cpu := e.p.CPU()
			cpu.Dispatch = d
			reg := obs.NewRegistry()
			cpu.Obs = emu.NewMetrics(reg)
			for {
				ev, err := e.ContinueBudget(slice)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Kind == proc.EventExit {
					break
				}
				if ev.Kind != proc.EventBudget {
					t.Fatalf("dispatch %d slice %d: stopped with %+v", d, slice, ev)
				}
			}
			var in, cy uint64
			for _, tier := range []string{"slow", "block", "trace"} {
				in += reg.Counter("emu.tier." + tier + ".instret").Load()
				cy += reg.Counter("emu.tier." + tier + ".cycles").Load()
			}
			if in != cpu.Instret || cy != cpu.Cycles {
				t.Errorf("dispatch %d slice %d: tiers sum to %d/%d, raw counters %d/%d",
					d, slice, in, cy, cpu.Instret, cpu.Cycles)
			}
			trace := reg.Counter("emu.tier.trace.instret").Load()
			if d == emu.DispatchTrace && slice == 0 && trace*4 < cpu.Instret*3 {
				t.Errorf("traces retired %d of %d instructions, want at least 75%%", trace, cpu.Instret)
			}
		}
	}
}
