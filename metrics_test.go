package rvdyn_test

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/proc"
	"rvdyn/internal/profile"
	"rvdyn/internal/profile/sample"
	"rvdyn/internal/server"
	"rvdyn/internal/snippet"
	"rvdyn/internal/workload"
)

// TestCLIRegistryExposition fills one registry the way the CLIs fill theirs
// (rvdyn -metrics, rvemu -stats, rvdynd's /metrics) and checks that it
// renders as one valid Prometheus exposition. The exposition is the only
// text form of the counters, so two dotted names that sanitize to one family
// name would break every output: the family count must equal the number of
// registered names.
func TestCLIRegistryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	fib := workloadFile(t, "fib")

	// rvdyn profile -engine dbi fib: emu.* and emu.dbi.*; rvdyn profile
	// fib: profile.probe_hits.
	for _, eng := range []profile.Engine{profile.EngineDBI, profile.EngineEmu} {
		g := profile.Guest{Engine: eng, Obs: reg}
		if _, err := profile.Run(fib, profile.Options{Guest: g, Funcs: []string{"fib"}}); err != nil {
			t.Fatal(err)
		}
	}
	// rvdyn run -mode spawn: proc.*.
	bin, err := core.FromFile(fib)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := bin.FindFunction("fib")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bin.Launch(emu.P550())
	if err != nil {
		t.Fatal(err)
	}
	p.CPU().Obs = emu.NewMetrics(reg)
	p.Process.Obs = proc.NewMetrics(reg)
	ctr := p.NewVar("count", 8)
	if _, err := p.InstrumentFunction(fn, []snippet.Point{snippet.FuncEntry(fn)},
		snippet.Increment(ctr), codegen.ModeDeadRegister); err != nil {
		t.Fatal(err)
	}
	if ev, err := p.Continue(); err != nil || ev.Kind != proc.EventExit {
		t.Fatalf("spawned run: %+v, %v", ev, err)
	}
	// rvdyn profile -sample: profile.samples.
	if _, err := sample.Run(fib, sample.Options{Guest: profile.Guest{Obs: reg}, Period: 300, Name: "fib"}); err != nil {
		t.Fatal(err)
	}
	// rvdyn batch: patch.* and pipeline.*.
	if _, err := pipeline.Batch(pipeline.WorkloadJobs(), pipeline.Options{Jobs: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	// rvdyn serve: server.*, server.http.* and cache.* after one request.
	prog := workload.Programs()[0]
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mw.WriteField("spec", `{"funcs":["`+strings.Join(prog.Funcs, `","`)+`"]}`)
	mw.WriteField("source", prog.Source)
	mw.Close()
	req := httptest.NewRequest("POST", "/v1/instrument", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	server.NewHandler(server.NewService(server.Options{Jobs: 1, Metrics: reg}), server.HandlerOptions{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("served request: status %d: %s", rec.Code, rec.Body)
	}

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(&out)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(fams) != reg.Len() {
		t.Errorf("%d families for %d registered names: some names render to one family", len(fams), reg.Len())
	}
	seen := map[string]bool{}
	for _, f := range fams {
		seen[f.Name] = true
	}
	for _, want := range []string{
		"emu_instructions_retired", "emu_dbi_translations", "profile_probe_hits",
		"proc_breakpoint_hits", "profile_samples", "patch_reloc_code_bytes", "pipeline_binaries",
		"pipeline_phase_ns_parse", "server_requests", "server_http_2xx", "cache_misses",
	} {
		if !seen[want] {
			t.Errorf("exposition has no %s family", want)
		}
	}
}

// workloadFile assembles the named workload program.
func workloadFile(t *testing.T, name string) *elfrv.File {
	t.Helper()
	for _, p := range workload.Programs() {
		if p.Name == name {
			f, err := asm.Assemble(p.Source, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}
