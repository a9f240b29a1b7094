package dbi

import (
	"rvdyn/internal/codegen"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/proc"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// counterProbeSource is a workload that reads rdcycle and rdinstret
// mid-loop — through a jalr-called helper, so the reads sit on the far side
// of inline-lookup stubs — and stores every sample into a .data buffer the
// memhash covers. It is deliberately test-local, NOT in workload.Programs():
// suite-wide oracle tests pin CounterFn, and this program exists to run with
// the real counters live.
const counterProbeSource = `
	.data
	.globl samples
samples:
	.zero 16*16

	.text
	.globl _start
_start:
	la   s0, samples
	li   s1, 0
	li   s2, 8
	la   s3, sample
loop:
	jalr ra, 0(s3)          # indirect call: returns go through the IBL
	addi s1, s1, 1
	blt  s1, s2, loop
	# exit code folds the low bits of the last instret sample
	ld   a0, -8(s0)
	andi a0, a0, 63
	li   a7, 93
	ecall

	.globl sample
	.type sample, @function
sample:
	rdcycle   t0
	sd        t0, 0(s0)
	rdinstret t1
	sd        t1, 8(s0)
	addi      s0, s0, 16
	ret
	.size sample, .-sample
`

// runCounterProbe executes counterProbeSource and returns the 8 sampled
// {cycle, instret} pairs plus the exit code. Under DBI it also returns the
// engine (for metrics inspection).
func runCounterProbe(t *testing.T, useDBI, noVirt bool, budget uint64) ([16]uint64, int, *Engine) {
	t.Helper()
	f, err := asm.Assemble(counterProbeSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	var e *Engine
	if useDBI {
		if e, err = Attach(p, f, Options{NoCounterVirt: noVirt}); err != nil {
			t.Fatal(err)
		}
		sym, ok := f.Symbol("sample")
		if !ok {
			t.Fatal("no sample symbol")
		}
		// A probe inside the sampled window, so its cost must compensate too.
		if err := e.ProbeAt(sym.Value, snippet.Empty()); err != nil {
			t.Fatal(err)
		}
		for {
			ev, err := e.ContinueBudget(budget)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind == proc.EventExit {
				break
			}
			if ev.Kind != proc.EventBudget {
				t.Fatalf("dbi run stopped with %+v", ev)
			}
		}
	} else {
		ev, err := p.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != proc.EventExit {
			t.Fatalf("native run stopped with %+v", ev)
		}
	}
	sym, ok := f.Symbol("samples")
	if !ok {
		t.Fatal("no samples symbol")
	}
	b, err := p.CPU().ReadMem(sym.Value, 16*16)
	if err != nil {
		t.Fatal(err)
	}
	var out [16]uint64
	for i := range out {
		for j := 7; j >= 0; j-- {
			out[i] = out[i]<<8 | uint64(b[i*8+j])
		}
	}
	return out, p.ExitCode(), e
}

// TestDBICounterVirtualization is the headline counter-transparency pin:
// rdcycle/rdinstret values read by the guest mid-loop — through an
// indirect call, with a probe attached inside the sampled window — must be
// bit-identical to the native run's, and with -novirt they must diverge
// (proving the reads really went through the raw counters).
func TestDBICounterVirtualization(t *testing.T) {
	native, nExit, _ := runCounterProbe(t, false, false, 0)
	virt, vExit, e := runCounterProbe(t, true, false, 0)
	if vExit != nExit {
		t.Fatalf("exit diverged: native %d, dbi %d", nExit, vExit)
	}
	if virt != native {
		t.Errorf("virtualized counter samples diverged from native:\nnative %v\ndbi    %v", native, virt)
	}
	if e.Comp().IBLHits == 0 {
		t.Error("no inline-lookup hits — the samples did not cross an IBL stub")
	}

	raw, _, _ := runCounterProbe(t, true, true, 0)
	if raw == native {
		t.Error("-novirt samples match native — the raw counters cannot be this clean under translation")
	}
}

// TestDBICounterVirtualizationBudgetStops repeats the lockstep check while
// forcing the engine to stop and resume on a tiny budget, so samples land
// with the PC having parked mid-group and inside lookup stubs many times.
func TestDBICounterVirtualizationBudgetStops(t *testing.T) {
	native, nExit, _ := runCounterProbe(t, false, false, 0)
	virt, vExit, _ := runCounterProbe(t, true, false, 7)
	if vExit != nExit {
		t.Fatalf("exit diverged: native %d, dbi %d", nExit, vExit)
	}
	if virt != native {
		t.Errorf("samples diverged under budget stops:\nnative %v\ndbi    %v", native, virt)
	}
}

// TestDBIIBLHitRatio pins how the recursive fib workload's indirect
// transfers (all returns) resolve. In ModeSpillAlways, which never parses,
// at least 90% resolve through the lookup table in-cache, every transfer is
// exactly one lookup hit or one miss, and every miss is one engine round
// trip. In the default dead-register mode every return matches its return
// chain (fib has three direct return sites), so the lookup is never
// reached. Each run repeats under a single Continue and in budget slices of
// several lengths (down to single steps, which park the guest inside
// chains and lookup stubs): neither the lookup counters nor the raw machine
// counters may depend on where the engine is re-entered.
func TestDBIIBLHitRatio(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	want := nativeIndirectJumps(t, f)
	type result struct{ hits, misses, instret, cycles uint64 }
	for _, mode := range []codegen.Mode{codegen.ModeSpillAlways, codegen.ModeDeadRegister} {
		var whole result
		for _, slice := range []uint64{0, 1, 7, 500, 10_000} {
			p, err := proc.Launch(f, emu.P550())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			e, err := Attach(p, f, Options{Mode: mode, Obs: NewMetrics(reg)})
			if err != nil {
				t.Fatal(err)
			}
			for {
				ev, err := e.ContinueBudget(slice)
				if err != nil {
					t.Fatalf("%v slice %d: %v", mode, slice, err)
				}
				if ev.Kind == proc.EventExit {
					if ev.ExitCode != workload.FibExpected {
						t.Fatalf("%v slice %d: exit %d, want %d", mode, slice, ev.ExitCode, workload.FibExpected)
					}
					break
				}
				if ev.Kind != proc.EventBudget {
					t.Fatalf("%v slice %d: stopped with %+v", mode, slice, ev)
				}
			}
			r := result{
				hits:    reg.Counter("emu.dbi.ibl.hits").Load(),
				misses:  reg.Counter("emu.dbi.ibl.misses").Load(),
				instret: p.CPU().Instret,
				cycles:  p.CPU().Cycles,
			}
			if mode == codegen.ModeDeadRegister {
				if r.hits+r.misses != 0 {
					t.Errorf("%v slice %d: ibl.hits+ibl.misses = %d+%d, want every return resolved by its chain",
						mode, slice, r.hits, r.misses)
				}
			} else {
				if r.hits+r.misses != want {
					t.Errorf("%v slice %d: ibl.hits+ibl.misses = %d+%d, native run retired %d indirect jumps",
						mode, slice, r.hits, r.misses, want)
				}
				if ratio := float64(r.hits) / float64(want); ratio < 0.90 {
					t.Errorf("%v slice %d: IBL absorbed %.1f%% of indirect transfers (hits=%d misses=%d), want >= 90%%",
						mode, slice, ratio*100, r.hits, r.misses)
				}
			}
			if ie := reg.Counter("emu.dbi.indirect_exits").Load(); ie != r.misses {
				t.Errorf("%v slice %d: indirect_exits=%d != ibl.misses=%d — with inline lookup they must coincide",
					mode, slice, ie, r.misses)
			}
			if slice == 0 {
				whole = r
			} else if r != whole {
				t.Errorf("%v slice %d: hits/misses/raw instret/raw cycles %v, single Continue %v", mode, slice, r, whole)
			}
		}
	}
}

// TestDBIReturnChainMisses keeps the lookup stub's counters honest in the
// default dead-register mode, where fib's and matmul's returns all resolve
// through their chains: every indirect jump of returnStressSource misses
// or skips its chain (more than maxRetSites callers, a function-pointer
// callee, a tail call, an advanced ra, an indirect call), so each one must
// reach the probe, the misses must leave through the engine, and the run
// must match native.
func TestDBIReturnChainMisses(t *testing.T) {
	f, err := asm.Assemble(returnStressSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	want := nativeIndirectJumps(t, f)
	reg := obs.NewRegistry()
	native := observeNative(t, f)
	got := observeDBI(t, f, nil, reg)
	if got.ExitCode != 42 {
		t.Fatalf("exit %d, want 42", got.ExitCode)
	}
	compareObs(t, "return-stress", native, got)
	hits := reg.Counter("emu.dbi.ibl.hits").Load()
	misses := reg.Counter("emu.dbi.ibl.misses").Load()
	ind := reg.Counter("emu.dbi.indirect_exits").Load()
	if hits+misses != want {
		t.Errorf("ibl.hits+ibl.misses = %d+%d, native run retired %d indirect jumps, none of which a chain may resolve",
			hits, misses, want)
	}
	if hits == 0 || ind == 0 {
		t.Errorf("lookup stub idle: ibl.hits=%d indirect_exits=%d", hits, ind)
	}
	if ind != misses {
		t.Errorf("indirect_exits=%d != ibl.misses=%d — with inline lookup they must coincide", ind, misses)
	}
}

// nativeIndirectJumps counts the jalr instructions a native run of f
// retires, decoding each instruction before stepping it.
func nativeIndirectJumps(t *testing.T, f *elfrv.File) uint64 {
	t.Helper()
	c, err := emu.New(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for {
		b, err := c.ReadMem(c.PC, 2)
		if err == nil && b[0]&3 == 3 {
			b, err = c.ReadMem(c.PC, 4)
		}
		if err != nil {
			t.Fatalf("fetch at %#x: %v", c.PC, err)
		}
		in, err := riscv.Decode(b, c.PC)
		if err != nil {
			t.Fatalf("decode at %#x: %v", c.PC, err)
		}
		if in.Cat() == riscv.CatJALR {
			n++
		}
		switch r := c.Step(); r {
		case emu.StopExit:
			return n
		case emu.StopMaxInst:
		default:
			t.Fatalf("native run stopped with %v (%v)", r, c.LastTrap())
		}
	}
}

// TestDBIProbeRemoval attaches a counting probe, lets it fire, removes it
// mid-run without a cache flush, and checks the count freezes while the
// program completes untouched — with exact counter compensation before and
// after the removal patch.
func TestDBIProbeRemoval(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	// Native final counters for the transparency check.
	pn, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pn.Continue(); err != nil {
		t.Fatal(err)
	}
	nI, nC := pn.CPU().Instret, pn.CPU().Cycles

	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := Attach(p, f, Options{Obs: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	v := e.NewVar("calls", 8)
	sym, _ := f.Symbol("fib")
	if err := e.ProbeAt(sym.Value, snippet.Increment(v)); err != nil {
		t.Fatal(err)
	}
	ev, err := e.ContinueBudget(4000)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventBudget {
		t.Fatalf("first slice ended with %+v", ev)
	}
	invBefore := reg.Counter("emu.dbi.invalidations").Load()
	// The budget stop may have parked the PC inside the splice itself, where
	// removal correctly refuses; nudge forward and retry. The nudging may
	// complete an in-flight firing, so the frozen count is read only after
	// removal succeeds.
	for {
		err := e.RemoveProbeAt(sym.Value)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "is executing") {
			t.Fatalf("remove: %v", err)
		}
		if _, err := e.ContinueBudget(1); err != nil {
			t.Fatal(err)
		}
	}
	during, err := e.ReadVar(v)
	if err != nil {
		t.Fatal(err)
	}
	if during == 0 || during >= 465 {
		t.Fatalf("probe fired %d times in the first slice, want 0 < n < 465", during)
	}
	if got := reg.Counter("emu.dbi.invalidations").Load(); got != invBefore {
		t.Errorf("removal invalidated %d translations — it must patch in place", got-invBefore)
	}
	if got := reg.Counter("emu.dbi.probe_removals").Load(); got != 1 {
		t.Errorf("probe_removals = %d, want 1", got)
	}
	ev, err = e.ContinueBudget(runBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("exit = %+v, want %d", ev, workload.FibExpected)
	}
	after, err := e.ReadVar(v)
	if err != nil {
		t.Fatal(err)
	}
	if after != during {
		t.Errorf("probe fired after removal: %d -> %d", during, after)
	}
	comp := e.Comp()
	if dI := uint64(int64(p.CPU().Instret) - comp.ExtraInstret); dI != nI {
		t.Errorf("compensated instret %d != native %d after removal", dI, nI)
	}
	if dC := uint64(int64(p.CPU().Cycles) - comp.ExtraCycles); dC != nC {
		t.Errorf("compensated cycles %d != native %d after removal", dC, nC)
	}

	// A second removal at the same address must report there is nothing left.
	if err := e.RemoveProbeAt(sym.Value); err == nil {
		t.Error("second RemoveProbeAt succeeded on an empty point")
	}
}

// TestDBIDetachRealignSweep is the regression test for detach during
// pending stub execution: sweep the budget so Detach fires with the PC at
// every reachable offset — mid-translation-group, on direct-stub
// accumulators and slots, and inside inline-lookup stubs — then finish
// natively and require the exit code AND the compensated counters to equal
// the pure-native finals exactly.
func TestDBIDetachRealignSweep(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pn, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pn.Continue(); err != nil {
		t.Fatal(err)
	}
	nI, nC, nExit := pn.CPU().Instret, pn.CPU().Cycles, pn.ExitCode()

	max := uint64(600)
	if testing.Short() {
		max = 150
	}
	for k := uint64(1); k <= max; k++ {
		p, err := proc.Launch(f, emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		e, err := Attach(p, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := e.ContinueBudget(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := e.Detach(); err != nil {
			t.Fatalf("k=%d: detach: %v", k, err)
		}
		if pc := p.PC(); pc >= e.cacheBase && pc < e.cacheEnd {
			t.Fatalf("k=%d: detach left pc %#x in the cache", k, pc)
		}
		if ev.Kind != proc.EventExit {
			if ev, err = p.Continue(); err != nil {
				t.Fatalf("k=%d: native finish: %v", k, err)
			}
			if ev.Kind != proc.EventExit {
				t.Fatalf("k=%d: native finish stopped with %+v", k, ev)
			}
		}
		if p.ExitCode() != nExit {
			t.Fatalf("k=%d: exit %d, want %d", k, p.ExitCode(), nExit)
		}
		comp := e.Comp()
		dI := uint64(int64(p.CPU().Instret) - comp.ExtraInstret)
		dC := uint64(int64(p.CPU().Cycles) - comp.ExtraCycles)
		if dI != nI || dC != nC {
			t.Fatalf("k=%d: compensated counters %d/%d, native %d/%d (extra %d/%d)",
				k, dI, dC, nI, nC, comp.ExtraInstret, comp.ExtraCycles)
		}
	}
}

// TestDBIReattachCarriesCompensation pins the attach→detach→attach
// lifecycle: the second session reuses the CPU's compensation state, so
// counter reads stay native-identical across the gap.
func TestDBIReattachCarriesCompensation(t *testing.T) {
	f, err := asm.Assemble(workload.FibSource, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	pn, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pn.Continue(); err != nil {
		t.Fatal(err)
	}
	nI, nC := pn.CPU().Instret, pn.CPU().Cycles

	p, err := proc.Launch(f, emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	e, err := Attach(p, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ContinueBudget(1000); err != nil {
		t.Fatal(err)
	}
	if err := e.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ContinueBudget(500); err != nil {
		t.Fatal(err)
	}
	e2, err := Attach(p, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := e2.ContinueBudget(runBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != proc.EventExit || ev.ExitCode != workload.FibExpected {
		t.Fatalf("exit = %+v, want %d", ev, workload.FibExpected)
	}
	comp := e2.Comp()
	dI := uint64(int64(p.CPU().Instret) - comp.ExtraInstret)
	dC := uint64(int64(p.CPU().Cycles) - comp.ExtraCycles)
	if dI != nI || dC != nC {
		t.Errorf("compensated counters %d/%d across re-attach, native %d/%d", dI, dC, nI, nC)
	}
}
