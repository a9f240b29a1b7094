package dbi

import (
	"bytes"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/parse"
	"rvdyn/internal/riscv"
	"rvdyn/internal/symtab"
)

// Hybrid scratch allocation: in codegen.ModeDeadRegister the engine runs
// the static analysis over the attached image — symtab, CFG, per-function
// liveness — and hands the registers dead at a point to probe lowering and
// to the lookup stub, so neither spills nor saves scratch through CSRs.
// The analysis describes the parsed file, not the live process, so a
// function's liveness is only trusted while its bytes in memory match the
// image: it is checked when first used, and any store into the function
// afterwards (the code watch covers every function whose liveness was
// handed out) drops it for good — the function's probes are re-lowered
// with spills and its translations invalidated.

// funcLive is the engine's liveness state for one parsed function.
type funcLive struct {
	lo, hi uint64 // the function's extent
	// lv is nil once the function must spill: its bytes differed from the
	// parsed image at first use, or a store landed in [lo, hi).
	lv *dataflow.LivenessResult
}

// analyze parses the attached image once. A file the static analysis
// cannot handle leaves e.cfg nil, and every point spills.
func (e *Engine) analyze() {
	e.live = map[*parse.Function]*funcLive{}
	st, err := symtab.FromFile(e.f)
	if err != nil {
		return
	}
	if cfg, err := parse.Parse(st, parse.Options{Workers: 1}); err == nil {
		e.cfg = cfg
	}
}

// deadAt returns the integer registers dead immediately before the
// original instruction at addr, in the code generator's preference order,
// or nil when the engine must spill there. Where parsed functions overlap
// at addr, a register counts as dead only if every one of them says so.
func (e *Engine) deadAt(addr uint64) []riscv.Reg {
	if e.opts.Mode != codegen.ModeDeadRegister {
		return nil
	}
	if e.live == nil {
		e.analyze()
	}
	if e.cfg == nil {
		return nil
	}
	var dead []riscv.Reg
	found := false
	for _, fn := range e.cfg.Funcs {
		if _, ok := fn.BlockContaining(addr); !ok {
			continue
		}
		fl := e.liveFor(fn)
		if fl.lv == nil {
			return nil
		}
		d := fl.lv.DeadScratchX(addr)
		if found {
			d = intersect(dead, d)
		}
		dead, found = d, true
	}
	return dead
}

// liveFor returns fn's liveness state, computing it on first use: the
// function's bytes in process memory must match the parsed image, and from
// then on the code watch covers the function.
func (e *Engine) liveFor(fn *parse.Function) *funcLive {
	if fl := e.live[fn]; fl != nil {
		return fl
	}
	lo, hi := fn.Extent()
	fl := &funcLive{lo: lo, hi: hi}
	e.live[fn] = fl
	if e.imageMatches(lo, hi) {
		fl.lv = dataflow.Liveness(fn)
		e.rearmWatch()
	}
	return fl
}

// imageMatches reports whether process memory over [lo, hi) still holds
// the bytes the static analysis parsed.
func (e *Engine) imageMatches(lo, hi uint64) bool {
	r, ok := e.cfg.Symtab.RegionContaining(lo)
	if !ok || r.Data == nil || hi > r.Addr+uint64(len(r.Data)) {
		return false
	}
	mem, err := e.p.ReadMem(lo, int(hi-lo))
	return err == nil && bytes.Equal(mem, r.Data[lo-r.Addr:hi-r.Addr])
}

// dropLiveness handles a store into [addr, addr+n): every function with
// trusted liveness there falls back to spilling for good. Its probes are
// re-lowered without dead registers and its translations invalidated, so
// no copy keeps scratch the store may have made live.
func (e *Engine) dropLiveness(addr, n uint64) error {
	var hit []*funcLive
	for _, fl := range e.live {
		if fl.lv != nil && fl.lo < addr+n && fl.hi > addr {
			fl.lv = nil
			hit = append(hit, fl)
		}
	}
	for _, fl := range hit {
		for a, pr := range e.probes {
			if a >= fl.lo && a < fl.hi {
				if err := e.lowerProbe(a, pr); err != nil {
					return err
				}
			}
		}
		if err := e.invalidateRange(fl.lo, fl.hi-fl.lo, true); err != nil {
			return err
		}
	}
	return nil
}

// intersect keeps the registers of a that also appear in b, in a's order.
func intersect(a, b []riscv.Reg) []riscv.Reg {
	var out []riscv.Reg
	for _, r := range a {
		for _, s := range b {
			if r == s {
				out = append(out, r)
				break
			}
		}
	}
	return out
}
