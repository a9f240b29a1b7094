package oracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
)

// FuzzSliceLockstep drives the fast engine in budget slices instead of
// single steps, so blocks, fused pairs, traces, side exits and chained
// trace exits all engage, and a slice can end anywhere inside them. sched
// seeds the slice lengths: 1-8 instructions (mid-block), up to 64 (a few
// blocks) or up to 2000 (many trace passes). At every slice boundary the
// fast CPU's registers, PC and Instret must equal the reference
// interpreter's after the same number of steps, and its Cycles those of a
// DispatchSlow twin stepped in lockstep with the reference (the twin also
// supplies the reference's cycle and time reads). A clean stop also
// compares stdout and all of memory.
func FuzzSliceLockstep(f *testing.F) {
	f.Add(int64(1), uint16(150), uint64(1))
	f.Add(int64(2), uint16(300), uint64(0x9e3779b97f4a7c15))
	f.Add(int64(77), uint16(60), uint64(7))
	f.Add(int64(1), uint16(280), uint64(0x123456789))
	f.Add(int64(123456789), uint16(220), uint64(42))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, sched uint64) {
		length := int(n)%400 + 20
		prog, err := BuildProgram(seed, length)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sliceLockstep(prog, seed, sched); msg != "" {
			t.Fatalf("seed %d len %d sched %#x: %s", seed, length, sched, msg)
		}
	})
}

// sliceLockstep runs prog on the three engines slice by slice and reports
// the first difference ("" when none).
func sliceLockstep(prog *elfrv.File, seed int64, sched uint64) string {
	fast, err := emu.New(prog, nil)
	if err != nil {
		return err.Error()
	}
	slow, err := emu.New(prog, nil)
	if err != nil {
		return err.Error()
	}
	slow.Dispatch = emu.DispatchSlow
	ref, err := NewRef(prog)
	if err != nil {
		return err.Error()
	}
	var fastOut, slowOut, refOut bytes.Buffer
	fast.Stdout, slow.Stdout, ref.Stdout = &fastOut, &slowOut, &refOut
	ref.TimeFn = slow.VirtualNanos
	ref.CycleFn = func() uint64 { return slow.Cycles }
	ls := &lockstep{cpu: fast, ref: ref, seed: seed}

	rng := rand.New(rand.NewSource(int64(sched)))
	var total uint64
	for slice := 0; total < 1<<20; slice++ {
		var k int
		switch rng.Intn(3) {
		case 0:
			k = 1 + rng.Intn(8)
		case 1:
			k = 1 + rng.Intn(64)
		default:
			k = 1 + rng.Intn(2000)
		}
		// The reference steps first, the slow twin right behind it, so
		// the reference reads the cycle count before each instruction.
		want := emu.StopMaxInst
		for i := 0; i < k && want == emu.StopMaxInst; i++ {
			rr, rerr := ref.Step()
			sr := slow.Run(1)
			switch {
			case rr == StepBreakpoint:
				want = emu.StopBreakpoint
			case rerr != nil:
				want = emu.StopTrap
			case rr == StepExited:
				want = emu.StopExit
			}
			if want != emu.StopMaxInst && sr != want || want == emu.StopMaxInst && sr != emu.StopMaxInst {
				return fmt.Sprintf("slice %d: reference stop %v, slow twin %v", slice, want, sr)
			}
		}
		got := fast.Run(uint64(k))
		if got != want {
			return fmt.Sprintf("slice %d (k=%d): fast stop %v, reference %v", slice, k, got, want)
		}
		if d := ls.compareState(); d != nil {
			return fmt.Sprintf("slice %d (k=%d): %s fast %#x ref %#x", slice, k, d.Field, d.Fast, d.Ref)
		}
		if fast.Instret != ref.Instret {
			return fmt.Sprintf("slice %d (k=%d): instret fast %d, reference %d", slice, k, fast.Instret, ref.Instret)
		}
		if fast.Cycles != slow.Cycles {
			return fmt.Sprintf("slice %d (k=%d): cycles fast %d, slow twin %d", slice, k, fast.Cycles, slow.Cycles)
		}
		if want != emu.StopMaxInst {
			if want == emu.StopTrap {
				return "generated program trapped"
			}
			if d := ls.compareMemory(); d != nil {
				return fmt.Sprintf("final memory: %s fast %#x ref %#x", d.Field, d.Fast, d.Ref)
			}
			if !bytes.Equal(fastOut.Bytes(), refOut.Bytes()) || !bytes.Equal(slowOut.Bytes(), refOut.Bytes()) {
				return "stdout differs"
			}
			return ""
		}
		total += uint64(k)
	}
	return ""
}
