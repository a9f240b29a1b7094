package dbi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/oracle"
	"rvdyn/internal/proc"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// returnStressSource exercises every way a return can miss its return
// chain: many has more than maxRetSites direct callers (no chain at all),
// viajalr is reached only through a function pointer (no direct return
// site), twice tail-calls many (its return lands on twice's caller), and
// skipret returns through an ra it advanced past its call site, skipping
// the 4-byte addi there. Exit code: 3 passes of 5 + 3 + 6 = 42.
const returnStressSource = `
	.data
fnptr:
	.dword viajalr

	.text
	.globl _start
_start:
	li   s0, 0
	li   s1, 3
loop:
	call many
	call many
	call many
	call many
	call many
	la   t0, fnptr
	ld   t0, 0(t0)
	jalr ra, 0(t0)
	call twice
	call skipret
	addi s0, s0, 1000       # skipped: skipret returns past it
	addi s1, s1, -1
	bnez s1, loop
	andi a0, s0, 255
	li   a7, 93
	ecall

	.globl many
	.type many, @function
many:
	addi s0, s0, 1
	ret
	.size many, .-many

	.globl viajalr
	.type viajalr, @function
viajalr:
	addi s0, s0, 3
	ret
	.size viajalr, .-viajalr

	.globl twice
	.type twice, @function
twice:
	addi s0, s0, 5
	j    many
	.size twice, .-twice

	.globl skipret
	.type skipret, @function
skipret:
	addi ra, ra, 4
	ret
	.size skipret, .-skipret
`

// Negative seeds select fixed stress sources instead of the oracle
// generator: the jalr-dense band (recursion, a jump table, an indirect
// loop reading live counters), the self-modifying band, and the returns
// that miss their return chains (-5).
func fuzzProgram(t *testing.T, seed int64) (*elfrv.File, bool) {
	t.Helper()
	var src string
	smc := false
	switch seed {
	case -1:
		src, smc = workload.SMCSource, true
	case -2:
		src = workload.FibSource
	case -3:
		src = workload.JumpTableSource
	case -4:
		src = counterProbeSource
	case -5:
		src = returnStressSource
	default:
		f, err := oracle.BuildProgram(seed, 140)
		if err != nil {
			t.Fatalf("build seed %d: %v", seed, err)
		}
		return f, false
	}
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble seed %d: %v", seed, err)
	}
	return f, smc
}

// fuzzInstAddrs collects every decoded instruction boundary — the candidate
// probe points the schedule draws from.
func fuzzInstAddrs(f *elfrv.File) []uint64 {
	bin, err := core.FromFile(f)
	if err != nil {
		return nil
	}
	seen := map[uint64]bool{}
	var out []uint64
	for _, fn := range bin.Functions() {
		for _, b := range fn.Blocks {
			for _, in := range b.Insts {
				if !seen[in.Addr] {
					seen[in.Addr] = true
					out = append(out, in.Addr)
				}
			}
		}
	}
	return out
}

// FuzzDBILockstep is the headline differential fuzzer for the dynamic
// engine: every input derives a program (oracle-generated, or one of the
// jalr-dense / self-modifying / return-chain stress sources) plus a
// randomized schedule of probe placements at decoded instruction
// boundaries, mid-run probe additions and removals, budget stops, and
// detach/re-attach points. The instrumented run must match the native run
// on every observable — exit code, stdout, syscall trace, final writable
// memory — and, because every translation carries an exact compensation
// delta, on the retired instruction count itself. A DispatchSlow twin runs
// the same schedule, and at every stop its full state (registers, PC, raw
// and compensated counters, scratch CSRs) must equal the fast tiers'.
func FuzzDBILockstep(f *testing.F) {
	// The stress bands, each with a few schedule variants.
	for _, seed := range []int64{-1, -2, -3, -4, -5} {
		f.Add(seed, uint64(0))
		f.Add(seed, uint64(0x9e3779b97f4a7c15))
		f.Add(seed, uint64(0x123456789))
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(seed)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, seed int64, sched uint64) {
		if seed < -5 {
			seed = -1 - (-seed % 4) // fold arbitrary negatives onto bands -1..-4
		}
		prog, smc := fuzzProgram(t, seed)
		native := observeNative(t, prog)
		runFuzzSchedule(t, prog, smc, native, seed, sched)
	})
}

// fuzzSide is one of the two runs a schedule drives: the fast tiers or the
// DispatchSlow twin.
type fuzzSide struct {
	p   *proc.Process
	e   *Engine
	out bytes.Buffer
	got oracle.Observation
}

func runFuzzSchedule(t *testing.T, f *elfrv.File, smc bool, native *oracle.Observation, seed int64, sched uint64) {
	rng := rand.New(rand.NewSource(int64(sched) ^ seed*0x5bf03635))
	addrs := fuzzInstAddrs(f)
	if smc {
		// Keep fuzz probes off the self-modified site: a probe pins the old
		// bytes into its splice description, which is fine, but removal
		// schedules racing the rewrite make the oracle's "what should the
		// count be" ambiguous. Entry probes exercise SMC + probes already.
		site, ok := f.Symbol("smc_site")
		if ok {
			kept := addrs[:0]
			for _, a := range addrs {
				if a < site.Value || a >= site.Value+4 {
					kept = append(kept, a)
				}
			}
			addrs = kept
		}
	}

	var sides [2]*fuzzSide
	for i := range sides {
		p, err := proc.Launch(f, emu.P550())
		if err != nil {
			t.Fatal(err)
		}
		sd := &fuzzSide{p: p}
		cpu := p.CPU()
		if i == 1 {
			cpu.Dispatch = emu.DispatchSlow
		}
		cpu.Stdout = &sd.out
		cpu.TimeFn = func() uint64 { return pinnedClock }
		cpu.CounterFn = func(uint16) uint64 { return pinnedCounter }
		cpu.SyscallTrace = func(num, a0, a1, a2, ret uint64) {
			sd.got.Trace = append(sd.got.Trace, oracle.SyscallRecord{Num: num, A0: a0, A1: a1, A2: a2, Ret: ret})
		}
		sides[i] = sd
	}
	// both applies one schedule step to the fast run and then its twin;
	// the two must agree on whether it failed.
	both := func(what string, do func(sd *fuzzSide) error) error {
		e0 := do(sides[0])
		e1 := do(sides[1])
		if (e0 == nil) != (e1 == nil) {
			t.Fatalf("%s: fast %v, slow twin %v", what, e0, e1)
		}
		return e0
	}
	attach := func() {
		opts := Options{NoCounterVirt: rng.Intn(4) == 0}
		both("attach", func(sd *fuzzSide) (err error) {
			sd.e, err = Attach(sd.p, f, opts)
			return err
		})
	}
	// cont runs one budget slice on both and compares their full state.
	cont := func(what string, budget uint64, native bool) proc.Event {
		var evs [2]proc.Event
		both(what, func(sd *fuzzSide) (err error) {
			i := 0
			if sd == sides[1] {
				i = 1
			}
			if native {
				evs[i], err = sd.p.ContinueBudget(budget)
			} else {
				evs[i], err = sd.e.ContinueBudget(budget)
			}
			return err
		})
		if evs[0].Kind != evs[1].Kind {
			t.Fatalf("%s: stop kind: fast %v, slow twin %v", what, evs[0].Kind, evs[1].Kind)
		}
		if d := sameDBIState(sides[0].e, sides[1].e); d != "" {
			t.Fatalf("%s: fast tiers and slow twin differ: %s", what, d)
		}
		return evs[0]
	}
	detach := func(what string) {
		if err := both(what, func(sd *fuzzSide) error { return sd.e.Detach() }); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := sameDBIState(sides[0].e, sides[1].e); d != "" {
			t.Fatalf("%s: fast tiers and slow twin differ: %s", what, d)
		}
	}

	attach()
	pick := func() uint64 { return addrs[rng.Intn(len(addrs))] }
	probe := func(what string, a uint64) {
		if err := both(what, func(sd *fuzzSide) error { return sd.e.ProbeAt(a, snippet.Empty()) }); err != nil {
			t.Fatalf("%s at %#x: %v", what, a, err)
		}
	}
	var placed []uint64
	if len(addrs) > 0 {
		for i := rng.Intn(4); i > 0; i-- {
			a := pick()
			probe("probe", a)
			placed = append(placed, a)
		}
	}

	ev := proc.Event{Kind: proc.EventBudget}
	for round := 0; round < 40 && ev.Kind == proc.EventBudget; round++ {
		ev = cont(fmt.Sprintf("round %d", round), uint64(1+rng.Intn(400)), false)
		switch {
		case ev.Kind != proc.EventBudget:
			// exit (or an unexpected stop, checked below)

		case rng.Intn(3) == 0 && len(addrs) > 0:
			a := pick()
			probe("mid-run probe", a)
			placed = append(placed, a)

		case rng.Intn(3) == 0 && len(placed) > 0:
			i := rng.Intn(len(placed))
			err := both("remove", func(sd *fuzzSide) error { return sd.e.RemoveProbeAt(placed[i]) })
			if err != nil && !strings.Contains(err.Error(), "is executing") &&
				!strings.Contains(err.Error(), "no probe at") {
				t.Fatalf("remove at %#x: %v", placed[i], err)
			}
			if err == nil {
				// One removal clears every probe at the address; forget all
				// placements there.
				kept := placed[:0]
				for _, a := range placed {
					if a != placed[i] {
						kept = append(kept, a)
					}
				}
				placed = kept
			}

		case rng.Intn(4) == 0:
			// Detach — including with the PC parked mid-group or inside an
			// inline-lookup stub — run a native slice, and re-attach.
			detach("detach")
			for _, sd := range sides {
				if pc := sd.p.PC(); pc >= sd.e.cacheBase && pc < sd.e.cacheEnd {
					t.Fatalf("detach left pc %#x inside the cache", pc)
				}
			}
			if ev = cont("native slice", uint64(1+rng.Intn(300)), true); ev.Kind != proc.EventBudget {
				break
			}
			attach()
			placed = nil // probes do not survive detach
		}
	}
	if ev.Kind == proc.EventBudget {
		// Schedule exhausted its rounds: detach cleanly and finish native.
		detach("final detach")
		ev = cont("native finish", runBudget, true)
	}
	if ev.Kind != proc.EventExit {
		t.Fatalf("run stopped with %v (addr=%#x err=%v pc=%#x)", ev.Kind, ev.Addr, ev.Err, sides[0].p.PC())
	}

	for _, sd := range sides {
		cpu := sd.p.CPU()
		h := sha256.New()
		for _, s := range oracle.WritableSections(f) {
			b, err := cpu.ReadMem(s.Addr, int(s.Size()))
			if err != nil {
				t.Fatalf("hashing %s: %v", s.Name, err)
			}
			h.Write(b)
		}
		copy(sd.got.MemHash[:], h.Sum(nil))
		sd.got.ExitCode = sd.p.ExitCode()
		sd.got.Stdout = sd.out.Bytes()
		compareObs(t, "fuzz", native, &sd.got)

		// The compensation invariant: raw retired minus the accumulated
		// deltas equals the native instruction count, wherever the
		// schedule wandered.
		comp := sd.e.Comp()
		if dI := uint64(int64(cpu.Instret) - comp.ExtraInstret); dI != native.Steps {
			t.Errorf("compensated instret %d != native %d (raw %d, extra %d)",
				dI, native.Steps, cpu.Instret, comp.ExtraInstret)
		}
	}
}
