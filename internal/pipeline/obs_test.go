package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"rvdyn/internal/codegen"
	"rvdyn/internal/obs"
)

// TestBatchTraceSpans runs a traced batch and checks the span structure: one
// job:<name> span per binary, phase child spans contained within their job
// span, and concurrent workers on distinct tids.
func TestBatchTraceSpans(t *testing.T) {
	jobs := WorkloadJobs()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	opts := Options{
		Jobs: 4, Mode: codegen.ModeDeadRegister,
		Metrics: reg, Trace: tr, TraceTID: 1,
	}
	results, err := Batch(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}

	evs := tr.Events()
	jobSpans := map[string]obs.TraceEvent{}
	for _, ev := range evs {
		if strings.HasPrefix(ev.Name, "job:") {
			jobSpans[strings.TrimPrefix(ev.Name, "job:")] = ev
		}
	}
	for _, j := range jobs {
		if _, ok := jobSpans[j.Name]; !ok {
			t.Errorf("no job span for %s", j.Name)
		}
	}
	// Phase spans nest inside the same-tid job span covering them.
	for _, ev := range evs {
		if strings.HasPrefix(ev.Name, "job:") || ev.Cat == "" {
			continue
		}
		contained := false
		for _, js := range jobSpans {
			if ev.TID == js.TID && ev.TS >= js.TS && ev.TS+ev.Dur <= js.TS+js.Dur+1 {
				contained = true
				break
			}
		}
		if !contained {
			t.Errorf("phase span %s (tid %d, ts %v) not inside any job span", ev.Name, ev.TID, ev.TS)
		}
	}

	// The rewriter's counters flowed through the shared registry.
	var kinds uint64
	for _, name := range []string{"patch.kind.c.j", "patch.kind.jal", "patch.kind.auipc+jalr", "patch.kind.trap"} {
		kinds += reg.Counter(name).Load()
	}
	var patches uint64
	for _, res := range results {
		patches += uint64(len(res.Patches))
	}
	if kinds != patches {
		t.Errorf("patch.kind.* counters sum to %d, %d patches installed", kinds, patches)
	}
}

// TestBatchObsOutputIdentical pins that attaching metrics and tracing leaves
// every output image byte-identical — observability must never perturb the
// product.
func TestBatchObsOutputIdentical(t *testing.T) {
	jobs := WorkloadJobs()
	plain, err := Batch(jobs, Options{Jobs: 2, Mode: codegen.ModeDeadRegister})
	if err != nil {
		t.Fatal(err)
	}
	metered, err := Batch(jobs, Options{
		Jobs: 2, Mode: codegen.ModeDeadRegister,
		Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), TraceTID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if !bytes.Equal(plain[i].ELF, metered[i].ELF) {
			t.Errorf("%s: output differs with obs attached", plain[i].Name)
		}
	}
}
