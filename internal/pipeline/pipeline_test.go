package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"rvdyn/internal/codegen"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
)

// TestBatchWorkloadsRunCorrectly pushes the whole workload suite through the
// parallel pipeline and verifies the instrumented binaries still behave:
// original exit codes, and every instrumented function's counter is hot.
func TestBatchWorkloadsRunCorrectly(t *testing.T) {
	reg := obs.NewRegistry()
	results, err := Batch(WorkloadJobs(), Options{Jobs: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("pipeline.binaries").Load(); got != uint64(len(results)) {
		t.Fatalf("pipeline.binaries = %d, want %d", got, len(results))
	}
	for _, res := range results {
		cpu, err := emu.New(res.File, emu.P550())
		if err != nil {
			t.Fatalf("%s: %v", res.Name, err)
		}
		if r := cpu.Run(0); r != emu.StopExit {
			t.Fatalf("%s: stopped %v (%v)", res.Name, r, cpu.LastTrap())
		}
		if res.CheckExit && cpu.ExitCode != res.WantExit {
			t.Errorf("%s: exit code %d, want %d", res.Name, cpu.ExitCode, res.WantExit)
		}
		for fn, addr := range res.Counters {
			v, err := cpu.Mem.Read64(addr)
			if err != nil {
				t.Fatalf("%s: reading counter %s: %v", res.Name, fn, err)
			}
			if v == 0 {
				t.Errorf("%s: counter for %s never incremented", res.Name, fn)
			}
		}
	}
}

// TestBatchDeterministicAcrossJobs is the in-package half of the determinism
// guarantee (the golden tests pin the bytes against committed files): the
// serialized ELF of every job must be identical at -jobs 1, 2, and 8.
func TestBatchDeterministicAcrossJobs(t *testing.T) {
	jobs := WorkloadJobs()
	var baseline []*Result
	for _, n := range []int{1, 2, 8} {
		results, err := Batch(jobs, Options{Jobs: n})
		if err != nil {
			t.Fatalf("jobs=%d: %v", n, err)
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i, res := range results {
			if !bytes.Equal(res.ELF, baseline[i].ELF) {
				t.Errorf("jobs=%d: %s output differs from jobs=1 (%d vs %d bytes)",
					n, res.Name, len(res.ELF), len(baseline[i].ELF))
			}
		}
	}
}

// TestPointsModesDeterministic covers the exits and blocks point selectors
// through the parallel path.
func TestPointsModesDeterministic(t *testing.T) {
	for _, points := range []string{"exits", "blocks"} {
		jobs := WorkloadJobs()
		var baseline []*Result
		for _, n := range []int{1, 8} {
			results, err := Batch(jobs, Options{Jobs: n, Points: points, Mode: codegen.ModeSpillAlways})
			if err != nil {
				t.Fatalf("points=%s jobs=%d: %v", points, n, err)
			}
			if baseline == nil {
				baseline = results
				continue
			}
			for i, res := range results {
				if !bytes.Equal(res.ELF, baseline[i].ELF) {
					t.Errorf("points=%s jobs=%d: %s output differs from serial", points, n, res.Name)
				}
			}
		}
	}
}

// TestStatsAccounting checks the pipeline.* counters a batch leaves in
// Options.Metrics: byte and patch totals equal the results', the parse
// counters and every phase time are filled, and assemble is the only phase
// a File job skips.
func TestStatsAccounting(t *testing.T) {
	jobs := WorkloadJobs()
	reg := obs.NewRegistry()
	results, err := Batch(jobs, Options{Jobs: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes, wantPatches uint64
	for _, res := range results {
		wantBytes += uint64(len(res.ELF))
		wantPatches += uint64(len(res.Patches))
	}
	if got := reg.Counter("pipeline.bytes_emitted").Load(); got != wantBytes {
		t.Errorf("pipeline.bytes_emitted = %d, want %d", got, wantBytes)
	}
	if got := reg.Counter("pipeline.patches_planned").Load(); got != wantPatches {
		t.Errorf("pipeline.patches_planned = %d, want %d", got, wantPatches)
	}
	for _, name := range []string{
		"pipeline.functions_parsed", "pipeline.blocks_discovered", "pipeline.insts_decoded",
		"pipeline.phase_ns.assemble", "pipeline.phase_ns.parse", "pipeline.phase_ns.plan",
		"pipeline.phase_ns.encode", "pipeline.phase_ns.splice", "pipeline.phase_ns.write",
	} {
		if reg.Counter(name).Load() == 0 {
			t.Errorf("%s = 0 after a %d-job batch", name, len(jobs))
		}
	}

	// A job that arrives as a File is not assembled.
	fileReg := obs.NewRegistry()
	if _, err := Instrument(Job{Name: results[0].Name, File: results[0].File}, Options{Jobs: 1, Metrics: fileReg}); err != nil {
		t.Fatal(err)
	}
	if got := fileReg.Counter("pipeline.phase_ns.assemble").Load(); got != 0 {
		t.Errorf("File job: pipeline.phase_ns.assemble = %d, want 0", got)
	}
	if got := fileReg.Counter("pipeline.binaries").Load(); got != 1 {
		t.Errorf("File job: pipeline.binaries = %d, want 1", got)
	}
}

// TestBatchErrorNamesJob pins error propagation: a bad function name must
// surface with the failing job identified, and completed results survive.
func TestBatchErrorNamesJob(t *testing.T) {
	jobs := WorkloadJobs()
	jobs[2].Funcs = append(jobs[2].Funcs, "no_such_function")
	_, err := Batch(jobs, Options{Jobs: 4})
	if err == nil {
		t.Fatal("expected an error for the bad function name")
	}
	if !strings.Contains(err.Error(), jobs[2].Name) || !strings.Contains(err.Error(), "no_such_function") {
		t.Errorf("error does not identify the failing job: %v", err)
	}
}

// TestSyntheticJobsDeterministic: the synthetic benchmark corpus itself must
// be schedule-independent, and its binaries must instrument cleanly.
func TestSyntheticJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic corpus instrumentation: skipped in -short mode")
	}
	jobs := SyntheticJobs(4, 40, 4)
	a, err := Batch(jobs, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Batch(jobs, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].ELF, b[i].ELF) {
			t.Errorf("synthetic job %d differs between jobs=1 and jobs=8", i)
		}
	}
}
