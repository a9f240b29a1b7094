// Package sample is a deterministic sampling profiler driven by the
// emulator's virtual clock — the low-overhead complement to package
// profile's exact instrumentation-based attribution. A sample trigger in
// the dispatch loop fires every Period virtual cycles; each sample
// captures the PC and a call stack through internal/stackwalk and
// attributes them to original-program addresses, even when execution is
// inside a DBI code cache (cache PCs map back through the engine's
// translation-group bounds; samples landing between bounds defer to the
// next bound, where the compensated clock and architectural state are
// native-identical).
//
// Because the marks are laid on the virtual clock rather than wall time,
// profiles are reproducible: two runs of the same binary with the same
// period produce byte-identical output, across the superblock fast path,
// the per-instruction slow path, and the DBI engine alike.
//
// A completed Profile exports three ways: pprof-compatible gzipped
// profile.proto (WritePprof/ParsePprof), folded-stack text for
// flamegraph.pl and speedscope (WriteFolded), and a top-N table
// (WriteTop).
package sample

import (
	"fmt"

	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/parse"
	"rvdyn/internal/profile"
	"rvdyn/internal/stackwalk"
)

// Options configures one sampled run.
type Options struct {
	// Guest configures the run. Every engine, at every emu.Dispatch value,
	// fires samples at bit-identical virtual times for the same binary and
	// period, so output is byte-identical across them (the fast tier defers
	// to slower dispatch whenever a block or trace pass could cross a
	// sample mark). Under profile.EngineDBI samples land on the compensated
	// clock and cache PCs map back to original addresses; with
	// NoCounterVirt they land on the raw translation-inflated clock, which
	// advances through cache-only instructions, so profiles stay
	// deterministic run-to-run but no longer match the native engine's.
	// The sampler records profile.samples and profile.sample_defers in Obs.
	profile.Guest
	// Period is the virtual-cycle distance between samples (required).
	Period uint64
	// Name labels the profile's mapping entry (the binary name pprof
	// shows). Empty means "prog".
	Name string
}

// Sample is one captured stack, innermost frame first, every PC an
// original-program address.
type Sample struct {
	Stack []uint64
}

// Profile is a completed sampled run.
type Profile struct {
	// Period is the configured sampling period in virtual cycles.
	Period uint64
	// TotalCycles/TotalInsts are the retired totals at exit (compensated
	// under profile.EngineDBI unless NoCounterVirt).
	TotalCycles uint64
	TotalInsts  uint64
	// DurationNanos is TotalCycles through the cost model.
	DurationNanos uint64
	ExitCode      int
	// Samples in chronological order. len(Samples)*Period is within one
	// Period of TotalCycles.
	Samples []Sample

	name string
	cfg  *parse.CFG
	// execLo/execHi bound the executable image (the pprof mapping span).
	execLo, execHi uint64
}

// Run executes f to completion under the sampler and returns the profile.
func Run(f *elfrv.File, opts Options) (*Profile, error) {
	if opts.Period == 0 {
		return nil, fmt.Errorf("sample: period must be nonzero")
	}
	name := opts.Name
	if name == "" {
		name = "prog"
	}
	prof := &Profile{Period: opts.Period, name: name}
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc == 0 || s.Flags&elfrv.SHFExecinstr == 0 {
			continue
		}
		if prof.execLo == 0 || s.Addr < prof.execLo {
			prof.execLo = s.Addr
		}
		if s.Addr+s.Size() > prof.execHi {
			prof.execHi = s.Addr + s.Size()
		}
	}

	sampleCount := opts.Obs.Counter("profile.samples")
	deferCount := opts.Obs.Counter("profile.sample_defers")

	var capture func()
	l, err := opts.Exec(f, codegen.ModeDeadRegister, func(l *profile.Launched) error {
		prof.cfg = l.Bin.CFG
		eng, prov := l.DBI, l.Proc.Provenance()
		if eng != nil {
			prov = eng.Provenance()
		}
		// The walk ends before any frame it cannot attribute, so no cache
		// PC reaches the profile.
		w := stackwalk.New(l.Bin.CFG, l.Proc.Process, prov)
		capture = func() {
			frames, _ := w.Walk()
			stack := make([]uint64, 0, len(frames))
			for _, fr := range frames {
				stack = append(stack, fr.PC)
			}
			if len(stack) == 0 {
				// Nothing walkable (e.g. PC outside every known
				// function): attribute to the entry so the sample is not
				// lost.
				stack = append(stack, f.Entry)
			}
			prof.Samples = append(prof.Samples, Sample{Stack: stack})
			sampleCount.Inc()
		}
		l.Proc.CPU().SetSampler(opts.Period, func(c *emu.CPU) bool {
			if s, ok := prov.Lookup(c.PC); ok && eng != nil && !(s.Bound && s.Lo == c.PC) {
				// Between translation-group bounds: the compensated clock
				// is not exact here. Defer to the next bound, where state
				// matches the native run bit-for-bit.
				deferCount.Inc()
				return false
			}
			capture()
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The exit syscall retires without another loop-top poll; marks the
	// final instructions passed drain here, attributed to the exit state —
	// deterministically, so conservation and byte-identity both hold.
	cpu := l.Proc.CPU()
	for i, n := 0, cpu.SampleDrain(); i < n; i++ {
		capture()
	}
	cpu.SetSampler(0, nil)

	prof.TotalCycles, prof.TotalInsts = l.Cycles, l.Insts
	prof.ExitCode = l.Proc.ExitCode()
	prof.DurationNanos = l.Model.Nanos(prof.TotalCycles)
	return prof, nil
}

// FuncName symbolizes one original-program address: the containing
// function's name, func_<entry> for unnamed functions, or the hex address
// when no function contains it.
func (p *Profile) FuncName(pc uint64) string {
	if fn, ok := p.cfg.FuncContaining(pc); ok {
		if fn.Name != "" {
			return fn.Name
		}
		return fmt.Sprintf("func_%x", fn.Entry)
	}
	return fmt.Sprintf("0x%x", pc)
}

// aggregate groups identical stacks, preserving first-appearance order so
// the aggregation is deterministic.
type aggRow struct {
	stack []uint64
	count int64
}

func (p *Profile) aggregate() []aggRow {
	index := map[string]int{}
	var rows []aggRow
	var key []byte
	for _, s := range p.Samples {
		key = key[:0]
		for _, pc := range s.Stack {
			for sh := 0; sh < 64; sh += 8 {
				key = append(key, byte(pc>>sh))
			}
		}
		k := string(key)
		if i, ok := index[k]; ok {
			rows[i].count++
			continue
		}
		index[k] = len(rows)
		rows = append(rows, aggRow{stack: s.Stack, count: 1})
	}
	return rows
}
