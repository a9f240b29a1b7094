package sample_test

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/profile"
	"rvdyn/internal/profile/sample"
	"rvdyn/internal/workload"
)

func buildProg(t testing.TB, name string) (*elfrv.File, workload.Program) {
	t.Helper()
	for _, prog := range workload.Programs() {
		if prog.Name != name {
			continue
		}
		f, err := asm.Assemble(prog.Source, asm.Options{})
		if err != nil {
			t.Fatalf("assemble %s: %v", name, err)
		}
		return f, prog
	}
	t.Fatalf("no workload named %s", name)
	return nil, workload.Program{}
}

func pprofBytes(t testing.TB, p *sample.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	return buf.Bytes()
}

func foldedBytes(t testing.TB, p *sample.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	return buf.Bytes()
}

// TestSamplePeriodRequired pins the one invalid configuration.
func TestSamplePeriodRequired(t *testing.T) {
	f, _ := buildProg(t, "fib")
	if _, err := sample.Run(f, sample.Options{}); err == nil {
		t.Fatal("Run with Period=0 succeeded, want error")
	}
}

// TestSampleByteIdenticalRuns pins the acceptance criterion: two runs of
// the same binary with the same period serialize to byte-identical pprof
// and folded output.
func TestSampleByteIdenticalRuns(t *testing.T) {
	for _, name := range []string{"matmul", "fib"} {
		t.Run(name, func(t *testing.T) {
			f, prog := buildProg(t, name)
			opts := sample.Options{Period: 500, Name: name}
			p1, err := sample.Run(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := sample.Run(f, opts)
			if err != nil {
				t.Fatal(err)
			}
			if p1.ExitCode != prog.ExitCode {
				t.Errorf("exit code = %d, want %d", p1.ExitCode, prog.ExitCode)
			}
			if len(p1.Samples) == 0 {
				t.Fatal("no samples captured")
			}
			if !bytes.Equal(pprofBytes(t, p1), pprofBytes(t, p2)) {
				t.Error("pprof output differs between two identical runs")
			}
			if !bytes.Equal(foldedBytes(t, p1), foldedBytes(t, p2)) {
				t.Error("folded output differs between two identical runs")
			}
		})
	}
}

// engines names the three ways to run under the sampler: the default fast
// tiers, per-instruction dispatch, and the DBI engine.
func engines(period uint64) map[string]sample.Options {
	return map[string]sample.Options{
		"fast": {Period: period},
		"slow": {Period: period, Dispatch: emu.DispatchSlow},
		"dbi":  {Period: period, Engine: sample.EngineDBI},
	}
}

// TestSampleEngineIdentity pins the tentpole's strongest property: the
// superblock fast path, the per-instruction slow path, and the DBI engine
// (sampling on the compensated clock, cache PCs mapped back through group
// bounds) all observe sample marks at bit-identical virtual times, so the
// three profiles serialize to the same bytes.
func TestSampleEngineIdentity(t *testing.T) {
	for _, name := range []string{"matmul", "fib"} {
		t.Run(name, func(t *testing.T) {
			f, _ := buildProg(t, name)
			profiles := map[string]*sample.Profile{}
			for eng, opts := range engines(500) {
				opts.Name = name
				p, err := sample.Run(f, opts)
				if err != nil {
					t.Fatalf("engine %v: %v", eng, err)
				}
				profiles[eng] = p
			}
			ref := profiles["fast"]
			refBytes := pprofBytes(t, ref)
			for _, eng := range []string{"slow", "dbi"} {
				p := profiles[eng]
				if p.TotalCycles != ref.TotalCycles {
					t.Errorf("engine %v: total cycles %d, fast %d", eng, p.TotalCycles, ref.TotalCycles)
				}
				if len(p.Samples) != len(ref.Samples) {
					t.Errorf("engine %v: %d samples, fast %d", eng, len(p.Samples), len(ref.Samples))
				}
				if !bytes.Equal(pprofBytes(t, p), refBytes) {
					t.Errorf("engine %v: pprof bytes differ from fast engine", eng)
				}
			}
		})
	}
}

// TestSampleMidTraceIdentity pins the trace-tier sampling contract: on a
// workload whose hot loop is trace-compiled, sample marks constantly land
// inside the span a trace pass would cover, so the dispatcher must defer
// that pass (trace dispatch and per-pass gates check worst-case pass cost
// against the next mark) and take the sample at the exact per-instruction
// boundary. The profile must serialize byte-identical across the traced
// fast path, the fast path with traces disabled, and the slow engine — at
// both a period several times a pass cost and one below it (where traces
// can never run a pass while a mark is pending).
func TestSampleMidTraceIdentity(t *testing.T) {
	f, _ := buildProg(t, "matmul")
	for _, period := range []uint64{499, 31} {
		reg := obs.NewRegistry()
		traced, err := sample.Run(f, sample.Options{Period: period, Obs: reg, Name: "matmul"})
		if err != nil {
			t.Fatal(err)
		}
		if period > 100 {
			// At the larger period traces must actually engage between
			// marks, or this test pins nothing.
			if passes := reg.Counter("emu.trace.passes").Load(); passes == 0 {
				t.Fatalf("period %d: no trace passes ran under the sampler", period)
			}
		}
		refBytes := pprofBytes(t, traced)
		for _, alt := range []sample.Options{
			{Period: period, Dispatch: emu.DispatchBlock, Name: "matmul"},
			{Period: period, Dispatch: emu.DispatchSlow, Name: "matmul"},
		} {
			p, err := sample.Run(f, alt)
			if err != nil {
				t.Fatal(err)
			}
			if p.TotalCycles != traced.TotalCycles {
				t.Errorf("period %d engine %v dispatch %d: total cycles %d, traced %d",
					period, alt.Engine, alt.Dispatch, p.TotalCycles, traced.TotalCycles)
			}
			if !bytes.Equal(pprofBytes(t, p), refBytes) {
				t.Errorf("period %d engine %v dispatch %d: pprof bytes differ from traced fast engine",
					period, alt.Engine, alt.Dispatch)
			}
		}
	}
}

// TestSampleConservation: the number of samples times the period is within
// one period of the total (compensated) cycle count, on every engine.
func TestSampleConservation(t *testing.T) {
	f, _ := buildProg(t, "matmul")
	const period = 700
	for eng, opts := range engines(period) {
		p, err := sample.Run(f, opts)
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		covered := uint64(len(p.Samples)) * period
		if covered > p.TotalCycles || p.TotalCycles-covered >= period {
			t.Errorf("engine %v: %d samples * %d = %d cycles covered, total %d (must be within one period)",
				eng, len(p.Samples), period, covered, p.TotalCycles)
		}
	}
}

// TestSampleDBIOriginalAddresses: profiles taken under the DBI engine must
// contain only original-program addresses — never code-cache PCs.
func TestSampleDBIOriginalAddresses(t *testing.T) {
	f, _ := buildProg(t, "matmul")
	var lo, hi uint64
	for _, s := range f.Sections {
		if s.Flags&elfrv.SHFAlloc == 0 || s.Flags&elfrv.SHFExecinstr == 0 {
			continue
		}
		if lo == 0 || s.Addr < lo {
			lo = s.Addr
		}
		if s.Addr+s.Size() > hi {
			hi = s.Addr + s.Size()
		}
	}
	p, err := sample.Run(f, sample.Options{Period: 500, Engine: sample.EngineDBI})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range p.Samples {
		for _, pc := range s.Stack {
			if pc < lo || pc >= hi {
				t.Fatalf("sample %d: PC %#x outside executable image [%#x, %#x) — code-cache address leaked",
					i, pc, lo, hi)
			}
		}
	}
}

// TestSamplePprofRoundTrip: the emitted gzipped protobuf parses with the
// in-tree decoder and the decoded aggregates match the profile.
func TestSamplePprofRoundTrip(t *testing.T) {
	f, _ := buildProg(t, "matmul")
	const period = 500
	reg := obs.NewRegistry()
	p, err := sample.Run(f, sample.Options{Period: period, Obs: reg, Name: "matmul"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sample.ParsePprof(bytes.NewReader(pprofBytes(t, p)))
	if err != nil {
		t.Fatalf("ParsePprof: %v", err)
	}
	if got, want := d.TotalSamples(), int64(len(p.Samples)); got != want {
		t.Errorf("decoded sample count = %d, profile has %d", got, want)
	}
	if d.Period != period {
		t.Errorf("decoded period = %d, want %d", d.Period, period)
	}
	if want := []string{"samples/count", "cycles/count"}; len(d.SampleTypes) != 2 ||
		d.SampleTypes[0] != want[0] || d.SampleTypes[1] != want[1] {
		t.Errorf("sample types = %v, want %v", d.SampleTypes, want)
	}
	if d.PeriodType != "cycles/count" {
		t.Errorf("period type = %q, want cycles/count", d.PeriodType)
	}
	if got, want := d.Duration, int64(p.DurationNanos); got != want {
		t.Errorf("duration_nanos = %d, want %d", got, want)
	}
	for i, s := range d.Samples {
		if len(s.Values) != 2 {
			t.Fatalf("decoded sample %d has %d values, want 2", i, len(s.Values))
		}
		if s.Values[1] != s.Values[0]*period {
			t.Errorf("decoded sample %d: cycles %d != count %d * period", i, s.Values[1], s.Values[0])
		}
		if len(s.LocationIDs) == 0 {
			t.Errorf("decoded sample %d has no locations", i)
		}
		for _, id := range s.LocationIDs {
			loc, ok := d.Locations[id]
			if !ok {
				t.Fatalf("decoded sample %d references unknown location %d", i, id)
			}
			if len(loc.FunctionIDs) != 1 {
				t.Fatalf("location %d has %d function lines, want 1", id, len(loc.FunctionIDs))
			}
			if _, ok := d.Functions[loc.FunctionIDs[0]]; !ok {
				t.Fatalf("location %d references unknown function %d", id, loc.FunctionIDs[0])
			}
		}
	}
	// The leaf attribution in the decoded profile matches the in-memory top
	// table's self counts.
	totals := d.FuncTotals()
	for _, row := range p.Top(0) {
		if row.Self == 0 {
			continue
		}
		if totals[row.Name] != row.Self {
			t.Errorf("decoded self count for %s = %d, want %d", row.Name, totals[row.Name], row.Self)
		}
	}
	// Sampler counters fed the shared registry.
	if got := reg.Counter("profile.samples").Load(); got != uint64(len(p.Samples)) {
		t.Errorf("profile.samples counter = %d, want %d", got, len(p.Samples))
	}
}

// TestSampleFoldedLineCount: the folded file has exactly one line per
// captured sample, each ending in " 1", frames root-first.
func TestSampleFoldedLineCount(t *testing.T) {
	f, _ := buildProg(t, "fib")
	p, err := sample.Run(f, sample.Options{Period: 300})
	if err != nil {
		t.Fatal(err)
	}
	folded := foldedBytes(t, p)
	sc := bufio.NewScanner(bytes.NewReader(folded))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasSuffix(line, " 1") {
			t.Errorf("folded line %d does not end in count 1: %q", lines, line)
		}
		lines++
	}
	if lines != len(p.Samples) {
		t.Errorf("folded line count = %d, want %d (one per sample)", lines, len(p.Samples))
	}
	// The recursive workload must produce at least one multi-frame stack
	// with the recursing function repeated.
	if !bytes.Contains(folded, []byte("fib;fib")) {
		t.Error("no folded stack shows fib recursing (fib;fib)")
	}
}

// TestSampleTopAgreesWithExact cross-checks the sampler against the exact
// instrumentation-based profiler: on matmul both must attribute the
// majority of the run to the multiply kernel.
func TestSampleTopAgreesWithExact(t *testing.T) {
	f, prog := buildProg(t, "matmul")
	sp, err := sample.Run(f, sample.Options{Period: 500})
	if err != nil {
		t.Fatal(err)
	}
	rows := sp.Top(0)
	if len(rows) == 0 {
		t.Fatal("no top rows")
	}
	if rows[0].Name != "multiply" {
		t.Errorf("sampled hottest function = %s, want multiply (rows %+v)", rows[0].Name, rows)
	}
	if 2*rows[0].Cum < int64(len(sp.Samples)) {
		t.Errorf("multiply cumulative %d/%d samples, want majority", rows[0].Cum, len(sp.Samples))
	}

	exact, err := profile.Run(f, profile.Options{Funcs: prog.Funcs, Mode: codegen.ModeDeadRegister})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Rows) == 0 || exact.Rows[0].Name != rows[0].Name {
		t.Errorf("exact profiler hottest = %s, sampled hottest = %s — attribution disagrees",
			exact.Rows[0].Name, rows[0].Name)
	}
}
