package pipeline

import (
	"strings"
	"testing"

	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// TestBatchAllPartialFailure pins the partial-failure contract the rvdyn
// batch command builds its exit status on: BatchAll reports per-job errors
// positionally, completes every healthy job, and ErrorSummary names each
// failure.
func TestBatchAllPartialFailure(t *testing.T) {
	good := workload.Programs()[0]
	jobs := []Job{
		{Name: "ok-1", Source: good.Source, Funcs: good.Funcs},
		{Name: "broken-asm", Source: "\t.text\n\t.globl _start\n_start:\n\tnot_an_insn x1, x2\n"},
		{Name: "ok-2", Source: good.Source, Funcs: good.Funcs},
		{Name: "broken-func", Source: good.Source, Funcs: []string{"no_such_function"}},
	}
	reg := obs.NewRegistry()
	results, errs := BatchAll(jobs, Options{Jobs: 2, Metrics: reg})
	if len(results) != len(jobs) || len(errs) != len(jobs) {
		t.Fatalf("got %d results / %d errs for %d jobs", len(results), len(errs), len(jobs))
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("job %s failed: %v", jobs[i].Name, errs[i])
		}
		if results[i] == nil || len(results[i].ELF) == 0 {
			t.Errorf("job %s produced no output", jobs[i].Name)
		}
	}
	for _, i := range []int{1, 3} {
		if errs[i] == nil {
			t.Errorf("job %s should have failed", jobs[i].Name)
		}
		if results[i] != nil {
			t.Errorf("job %s failed but has a result", jobs[i].Name)
		}
	}
	if got := reg.Counter("pipeline.binaries").Load(); got != 2 {
		t.Errorf("pipeline.binaries = %d, want only the two completed binaries", got)
	}

	summary := ErrorSummary(jobs, errs)
	if !strings.Contains(summary, "2/4 jobs failed") {
		t.Errorf("summary missing failure count: %q", summary)
	}
	for _, name := range []string{"broken-asm", "broken-func"} {
		if !strings.Contains(summary, name) {
			t.Errorf("summary does not name failing job %s: %q", name, summary)
		}
	}
	if strings.Contains(summary, "ok-1") || strings.Contains(summary, "ok-2") {
		t.Errorf("summary names healthy jobs: %q", summary)
	}

	// The legacy Batch wrapper must surface the first failure as an error.
	if _, err := Batch(jobs, Options{Jobs: 2}); err == nil {
		t.Error("Batch returned nil error for a failing job set")
	}
}

// TestErrorSummaryEmptyOnSuccess: no failures, no summary — the batch
// command keys its exit status off this.
func TestErrorSummaryEmptyOnSuccess(t *testing.T) {
	good := workload.Programs()[0]
	jobs := []Job{{Name: "ok", Source: good.Source, Funcs: good.Funcs}}
	_, errs := BatchAll(jobs, Options{Jobs: 1})
	if errs[0] != nil {
		t.Fatalf("job failed: %v", errs[0])
	}
	if s := ErrorSummary(jobs, errs); s != "" {
		t.Errorf("summary for all-success batch: %q", s)
	}
}
