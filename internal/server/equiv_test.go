package server

import (
	"bytes"
	"fmt"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/oracle"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/riscv"
	"rvdyn/internal/workload"
)

// The cache-equivalence battery: every byte the server ever serves — cold,
// warm, coalesced, or recomputed from any partial-hit state — must equal a
// cold offline rewrite of the same input+spec. This is the property that
// makes a content-addressed cache sound at all; everything else in the
// package is an optimization on top of it.

// equivCase is one program+spec driven through both the offline pipeline
// and the service. Workloads travel as assembly source; oracle programs use
// RVA23 instructions the server-side assembler's default target rejects, so
// they travel pre-assembled, as binary uploads.
type equivCase struct {
	name   string
	source string
	binary []byte
	funcs  []string
}

// request builds the service request for this case.
func (tc equivCase) request() Request {
	if tc.binary != nil {
		return Request{Binary: tc.binary, Spec: Spec{Name: tc.name, Funcs: tc.funcs}}
	}
	return Request{Source: tc.source, Spec: Spec{Name: tc.name, Funcs: tc.funcs}}
}

// equivCases returns the workload suite plus a band of oracle-generated
// programs (instrumented at _start, their only function).
func equivCases(t testing.TB, oracleSeeds int) []equivCase {
	t.Helper()
	var cases []equivCase
	for _, p := range workload.Programs() {
		cases = append(cases, equivCase{name: p.Name, source: p.Source, funcs: p.Funcs})
	}
	for seed := 1; seed <= oracleSeeds; seed++ {
		src := oracle.GenerateProgram(int64(seed), 120)
		f, err := asm.Assemble(src, asm.Options{Arch: riscv.RVA23Subset})
		if err != nil {
			t.Fatalf("assemble oracle-%d: %v", seed, err)
		}
		raw, err := f.Write()
		if err != nil {
			t.Fatalf("serialize oracle-%d: %v", seed, err)
		}
		cases = append(cases, equivCase{
			name:   fmt.Sprintf("oracle-%d", seed),
			binary: raw,
			funcs:  []string{"_start"},
		})
	}
	return cases
}

// coldReference rewrites tc through the offline pipeline, serially, with no
// cache anywhere near it: the ground truth.
func coldReference(t testing.TB, tc equivCase) []byte {
	t.Helper()
	job := pipeline.Job{Name: tc.name, Source: tc.source, Funcs: tc.funcs}
	if tc.binary != nil {
		file, err := elfrv.Read(tc.binary)
		if err != nil {
			t.Fatalf("cold reference %s: re-read: %v", tc.name, err)
		}
		job.Source, job.File = "", file
	}
	res, err := pipeline.Instrument(job, pipeline.Options{Jobs: 1})
	if err != nil {
		t.Fatalf("cold reference %s: %v", tc.name, err)
	}
	return res.ELF
}

func instrument(t testing.TB, svc *Service, req Request, wantState string, wantELF []byte) *Response {
	t.Helper()
	resp, err := svc.Instrument(req)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	if wantState != "" && resp.CacheState != wantState {
		t.Fatalf("cache state %q, want %q", resp.CacheState, wantState)
	}
	if !bytes.Equal(resp.ELF, wantELF) {
		t.Fatalf("served ELF differs from cold reference (state %s, %d vs %d bytes)",
			resp.CacheState, len(resp.ELF), len(wantELF))
	}
	return resp
}

// TestServeCacheEquivalence: for every workload and a band of oracle
// programs, at every pool width, the first (miss) and second (hit) response
// are byte-identical to the cold offline rewrite.
func TestServeCacheEquivalence(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	cases := equivCases(t, seeds)
	for _, jobs := range []int{1, 2, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			svc := NewService(Options{Jobs: jobs, Metrics: obs.NewRegistry()})
			for _, tc := range cases {
				ref := coldReference(t, tc)
				req := tc.request()
				instrument(t, svc, req, "miss", ref)
				instrument(t, svc, req, "hit", ref)
			}
		})
	}
}

// TestServeCacheEquivalenceBinary covers the upload path: a pre-assembled
// ELF submitted as bytes must rewrite identically to the offline pipeline
// fed the same image.
func TestServeCacheEquivalenceBinary(t *testing.T) {
	svc := NewService(Options{Jobs: 2, Metrics: obs.NewRegistry()})
	for _, p := range workload.Programs() {
		f, err := asm.Assemble(p.Source, asm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		raw, err := f.Write()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		file, err := elfrv.Read(raw)
		if err != nil {
			t.Fatalf("%s: re-read: %v", p.Name, err)
		}
		res, err := pipeline.Instrument(
			pipeline.Job{Name: p.Name, File: file, Funcs: p.Funcs},
			pipeline.Options{Jobs: 1})
		if err != nil {
			t.Fatalf("%s: reference: %v", p.Name, err)
		}
		req := Request{Binary: raw, Spec: Spec{Funcs: p.Funcs}}
		instrument(t, svc, req, "miss", res.ELF)
		instrument(t, svc, req, "hit", res.ELF)
	}
}

// TestServeCacheEquivalencePartialHits walks every partial-hit state the
// cache can be in — elf evicted, plan evicted, liveness evicted, everything
// evicted — and asserts the recomputed response is byte-identical to the
// cold reference each time, at several pool widths.
func TestServeCacheEquivalencePartialHits(t *testing.T) {
	cases := equivCases(t, 2)
	steps := []struct {
		drop []string
		want string
	}{
		{nil, "miss"},
		{[]string{"elf"}, "partial:plan"},
		{[]string{"elf", "plan"}, "partial:analysis"},
		{[]string{"elf", "plan", "liveness"}, "partial:analysis"},
		{[]string{"elf", "plan", "liveness", "analysis"}, "miss"},
		{nil, "hit"},
	}
	for _, jobs := range []int{1, 2, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			svc := NewService(Options{Jobs: jobs, Metrics: obs.NewRegistry()})
			for _, tc := range cases {
				ref := coldReference(t, tc)
				req := tc.request()
				for _, step := range steps {
					for _, level := range step.drop {
						svc.Cache().DropLevel(level)
					}
					instrument(t, svc, req, step.want, ref)
				}
			}
		})
	}
}

// TestServeSpecCanonicalization: requests that differ only in spelling —
// explicit defaults, client-side labels, whitespace in names — share one
// cache entry and one output.
func TestServeSpecCanonicalization(t *testing.T) {
	svc := NewService(Options{Jobs: 1, Metrics: obs.NewRegistry()})
	p := workload.Programs()[0]
	ref := coldReference(t, equivCase{name: p.Name, source: p.Source, funcs: p.Funcs})

	base := Request{Source: p.Source, Spec: Spec{Funcs: p.Funcs}}
	first := instrument(t, svc, base, "miss", ref)

	variants := []Spec{
		{Name: "a-different-label", Funcs: p.Funcs},
		{Funcs: p.Funcs, Points: "entry"},
		{Funcs: p.Funcs, Mode: "dead"},
		{Funcs: spacePad(p.Funcs), Points: "entry", Mode: "dead"},
	}
	for i, sp := range variants {
		resp := instrument(t, svc, Request{Source: p.Source, Spec: sp}, "hit", ref)
		if resp.Key != first.Key {
			t.Errorf("variant %d keyed to %s, want %s", i, resp.Key, first.Key)
		}
	}

	// A semantically different spec must NOT share the entry: it keys
	// differently, recomputes at least the spec-dependent levels (analysis
	// for the same input stays warm), and yields different bytes.
	other, err := svc.Instrument(Request{Source: p.Source, Spec: Spec{Funcs: p.Funcs, Points: "exits"}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Key == first.Key || other.CacheState == "hit" {
		t.Errorf("points=exits reused the entry-points cache entry (%s, %s)", other.Key, other.CacheState)
	}
	if bytes.Equal(other.ELF, ref) {
		t.Error("points=exits produced the same bytes as points=entry")
	}
}

func spacePad(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = " " + s + " "
	}
	return out
}
