package patch

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// planBlockCounters plans fn with a counter increment at every block entry.
func planBlockCounters(t *testing.T, st *symtab.Symtab, fn *parse.Function) *RelocPlan {
	t.Helper()
	res, err := codegen.Generate(snippet.Increment(&snippet.Var{Name: "c", Width: 8, Addr: 0x900000}),
		codegen.Options{Arch: st.Extensions})
	if err != nil {
		t.Fatal(err)
	}
	var ins []Insertion
	for _, b := range fn.Blocks {
		ins = append(ins, Insertion{Addr: b.Start, Code: res.Insts})
	}
	plan, err := PlanRelocation(fn, st, ins, nil, st.Extensions)
	if err != nil {
		t.Fatalf("%s: %v", fn.Name, err)
	}
	return plan
}

// TestRelocPlanEncodeBaseShift encodes one plan at two bases. Only the
// fixups may differ between the two copies; each must reach the same
// absolute target from both, and the address map must shift by exactly the
// distance between the bases.
func TestRelocPlanEncodeBaseShift(t *testing.T) {
	st, cfg := analyze(t, workload.RandomProgram(7, 24), asm.Options{})
	// Both bases lie within jal reach of the original code, like the patch
	// area the rewriter places after the image.
	base := LayoutOf(st.File).PatchArea
	const delta = 0x10000
	fixups := 0
	for _, fn := range cfg.Funcs {
		plan := planBlockCounters(t, st, fn)
		r1, err := plan.Encode(base)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := plan.Encode(base + delta)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(r1.Code)) != plan.Size || len(r2.Code) != len(r1.Code) {
			t.Fatalf("%s: encoded %d and %d bytes, plan size %d", fn.Name, len(r1.Code), len(r2.Code), plan.Size)
		}
		atFixup := map[uint64]bool{}
		for _, f := range plan.fixups {
			fixups++
			for i := uint64(0); i < 4; i++ {
				atFixup[f.off+i] = true
			}
			for _, r := range []*Relocation{r1, r2} {
				inst, err := riscv.Decode(r.Code[f.off:], r.NewBase+f.off)
				if err != nil {
					t.Fatalf("%s: fixup at +%#x: %v", fn.Name, f.off, err)
				}
				if got := inst.Addr + uint64(inst.Imm); got != f.target {
					t.Errorf("%s: fixup at %#x reaches %#x, want %#x", fn.Name, inst.Addr, got, f.target)
				}
			}
		}
		for i := range r1.Code {
			if r1.Code[i] != r2.Code[i] && !atFixup[uint64(i)] {
				t.Errorf("%s: byte +%#x differs between bases outside any fixup", fn.Name, i)
			}
		}
		for _, b := range fn.Blocks {
			for _, inst := range b.Insts {
				a, ok := r1.Addr(inst.Addr)
				if !ok {
					t.Errorf("%s: instruction %#x missing from the address map", fn.Name, inst.Addr)
				}
				if a2, _ := r2.Addr(inst.Addr); a2 != a+delta {
					t.Errorf("%s: %#x maps to %#x and %#x, want a shift of %#x", fn.Name, inst.Addr, a, a2, delta)
				}
			}
		}
	}
	if fixups == 0 {
		t.Fatal("no plan had a fixup; the test needs calls out of a relocated function")
	}
}

// TestRelocPlanEncodeAllocs pins Encode's allocation count: a copy of the
// code and the result, however many instructions the function has. The
// relocation shares the plan's address pairs instead of building a map.
func TestRelocPlanEncodeAllocs(t *testing.T) {
	var src strings.Builder
	src.WriteString("\t.text\n\t.globl _start\n_start:\n\tcall small\n\tcall large\n\tli a7, 93\n\tecall\n")
	for _, fn := range []struct {
		name string
		n    int
	}{{"small", 4}, {"large", 600}} {
		fmt.Fprintf(&src, "\t.globl %[1]s\n\t.type %[1]s, @function\n%[1]s:\n", fn.name)
		for i := 0; i < fn.n; i++ {
			// A branch every eighth instruction splits the body into blocks.
			if i%8 == 7 {
				fmt.Fprintf(&src, "\tbeqz a0, %s_%d\n%s_%d:\n", fn.name, i, fn.name, i)
				continue
			}
			src.WriteString("\taddi a0, a0, 1\n")
		}
		fmt.Fprintf(&src, "\tret\n\t.size %[1]s, .-%[1]s\n", fn.name)
	}
	st, cfg := analyze(t, src.String(), asm.Options{})
	for _, name := range []string{"small", "large"} {
		fn, ok := cfg.FuncByName(name)
		if !ok {
			t.Fatalf("no function %s", name)
		}
		plan := planBlockCounters(t, st, fn)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := plan.Encode(0x400000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s (%d-byte plan): Encode made %.0f allocations, want at most 2", name, plan.Size, allocs)
		}
	}
}

// TestPlanSetFootprint checks that PlanSet.Footprint, which the rvdynd
// cache charges for a cached plan, tracks the heap the set really retains,
// for plans whose code is mostly original instructions (entry counters) and
// mostly snippets (block counters).
func TestPlanSetFootprint(t *testing.T) {
	st, cfg := analyze(t, workload.RandomProgram(1, 200), asm.Options{})
	for _, blocks := range []bool{false, true} {
		plan := func() *PlanSet {
			rw := NewRewriter(st, cfg, codegen.ModeDeadRegister)
			for _, fn := range cfg.Funcs {
				v := rw.NewVar("c_"+fn.Name, 8)
				pts := []snippet.Point{snippet.FuncEntry(fn)}
				if blocks {
					pts = snippet.BlockEntries(fn)
				}
				for _, pt := range pts {
					if err := rw.InsertSnippet(pt, snippet.Increment(v)); err != nil {
						t.Fatal(err)
					}
				}
			}
			ps, err := rw.Plan()
			if err != nil {
				t.Fatal(err)
			}
			return ps
		}
		// Two collections empty itemBufs, whose slices a plan does not keep.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		ps := plan()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		if ratio := float64(ps.Footprint()) / retained; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("blocks=%v: Footprint %d bytes, heap retained %.0f (ratio %.2f)",
				blocks, ps.Footprint(), retained, ratio)
		}
		runtime.KeepAlive(ps)
	}
}
