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

	"rvdyn/internal/core"
	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/parse"
	"rvdyn/internal/proc"
	"rvdyn/internal/stackwalk"
)

// Engine selects the execution engine under the sampler. Both engines, at
// every emu.Dispatch value, fire samples at bit-identical virtual times for
// the same binary and period.
type Engine int

const (
	// EngineFast runs the program directly on the emulator.
	EngineFast Engine = iota
	// EngineDBI runs under the dynamic binary instrumentation engine
	// (code-cache translation) with counter virtualization, sampling on
	// the compensated clock and mapping cache PCs back to original
	// addresses.
	EngineDBI
)

func (e Engine) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineDBI:
		return "dbi"
	}
	return "?"
}

// Options configures one sampled run.
type Options struct {
	// Model is the cost model; nil means emu.P550().
	Model *emu.CostModel
	// Period is the virtual-cycle distance between samples (required).
	Period uint64
	// Engine selects the execution engine (default EngineFast).
	Engine Engine
	// Dispatch selects the emulator's dispatch tiers under either engine
	// (default emu.DispatchTrace). Output is byte-identical at every value
	// (the fast tier defers to slower dispatch whenever a block or trace
	// pass could cross a sample mark); the choice exists for A/B runs.
	Dispatch emu.Dispatch
	// MaxInst bounds the run (0 = unlimited).
	MaxInst uint64
	// Obs, when non-nil, attaches emulator metrics and records sampler
	// counters (profile.samples, profile.sample_defers).
	Obs *obs.Registry
	// NoCounterVirt (EngineDBI only) samples on the raw translation-
	// inflated clock instead of the compensated one. Profiles are still
	// deterministic run-to-run but no longer byte-identical to the native
	// engines' — the raw clock advances through cache-only instructions.
	NoCounterVirt bool
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
	// under EngineDBI unless NoCounterVirt).
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
	model := opts.Model
	if model == nil {
		model = emu.P550()
	}
	bin, err := core.FromFile(f)
	if err != nil {
		return nil, err
	}
	p, err := proc.Launch(f, model)
	if err != nil {
		return nil, err
	}
	cpu := p.CPU()
	if opts.Obs != nil {
		cpu.Obs = emu.NewMetrics(opts.Obs)
	}
	cpu.Dispatch = opts.Dispatch

	var eng *dbi.Engine
	if opts.Engine == EngineDBI {
		var m dbi.Metrics
		if opts.Obs != nil {
			m = dbi.NewMetrics(opts.Obs)
		}
		eng, err = dbi.Attach(p, f, dbi.Options{Obs: m, NoCounterVirt: opts.NoCounterVirt})
		if err != nil {
			return nil, err
		}
	}

	name := opts.Name
	if name == "" {
		name = "prog"
	}
	prof := &Profile{Period: opts.Period, name: name, cfg: bin.CFG}
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

	w := stackwalk.New(bin.CFG, p)
	if eng != nil {
		w.Translate = func(pc uint64) uint64 {
			if orig, ok := eng.OrigPC(pc); ok {
				return orig
			}
			return pc
		}
	}

	sampleCount := opts.Obs.Counter("profile.samples")
	deferCount := opts.Obs.Counter("profile.sample_defers")

	capture := func() {
		frames, _ := w.Walk()
		stack := make([]uint64, 0, len(frames))
		for _, fr := range frames {
			if eng != nil {
				// Never let a cache-resident PC into the profile: a frame
				// that failed to map (possible only in the exit-drain
				// corner where the state is past the last group bound) is
				// dropped rather than misattributed.
				if lo, hi := eng.CacheRange(); fr.PC >= lo && fr.PC < hi {
					continue
				}
			}
			stack = append(stack, fr.PC)
		}
		if len(stack) == 0 {
			// Nothing walkable (e.g. PC outside every known function):
			// attribute to the entry so the sample is not lost.
			stack = append(stack, f.Entry)
		}
		prof.Samples = append(prof.Samples, Sample{Stack: stack})
		sampleCount.Inc()
	}

	cpu.SetSampler(opts.Period, func(c *emu.CPU) bool {
		if eng != nil {
			if lo, hi := eng.CacheRange(); c.PC >= lo && c.PC < hi {
				if _, ok := eng.OrigPC(c.PC); !ok {
					// Between translation-group bounds: the compensated
					// clock is not exact here. Defer to the next bound,
					// where state matches the native run bit-for-bit.
					deferCount.Inc()
					return false
				}
			}
		}
		capture()
		return true
	})
	defer cpu.SetSampler(0, nil)

	var ev proc.Event
	if eng != nil {
		ev, err = eng.ContinueBudget(opts.MaxInst)
	} else {
		ev, err = p.ContinueBudget(opts.MaxInst)
	}
	if err != nil {
		return nil, err
	}
	if ev.Kind != proc.EventExit {
		return nil, fmt.Errorf("sample: run stopped with %v, not exit", ev.Kind)
	}

	// The exit syscall retires without another loop-top poll; marks the
	// final instructions passed drain here, attributed to the exit state —
	// deterministically, so conservation and byte-identity both hold.
	for i, n := 0, cpu.SampleDrain(); i < n; i++ {
		capture()
	}

	prof.TotalCycles = cpu.Cycles
	prof.TotalInsts = cpu.Instret
	prof.ExitCode = p.ExitCode()
	if eng != nil && !opts.NoCounterVirt {
		comp := eng.Comp()
		prof.TotalCycles = uint64(int64(prof.TotalCycles) - comp.ExtraCycles)
		prof.TotalInsts = uint64(int64(prof.TotalInsts) - comp.ExtraInstret)
	}
	prof.DurationNanos = model.Nanos(prof.TotalCycles)
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
