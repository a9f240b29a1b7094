// Package pipeline runs the analyze→instrument pipeline concurrently over
// one or many binaries — the production-scale counterpart of the
// one-binary-at-a-time flow in cmd/rvdyn. It layers a worker pool over the
// existing toolkits: functions parse into CFGs in parallel (internal/parse's
// round-synchronized traversal), per-function patch planning and encoding
// fan out across workers (internal/patch's plan/encode split), and only the
// final layout/ladder assignment is serialized, so the output ELF of every
// job is byte-identical to the serial path regardless of worker count (the
// golden tests pin this).
//
// Shared structures obey a simple discipline: decoder tables, symbol tables,
// and section bytes are immutable once built; the only mutable cross-worker
// state is the rewriter's mutex-guarded liveness cache and this package's
// atomic counters. `go test -race ./internal/pipeline/...` is clean by
// construction, not by luck.
package pipeline

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/par"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// Options configures a pipeline run.
type Options struct {
	// Jobs is the worker-pool width for both the cross-binary pool and the
	// per-binary parse/plan/encode fan-out (<= 0: GOMAXPROCS, 1: serial).
	Jobs int
	// Mode selects the snippet register-allocation strategy.
	Mode codegen.Mode
	// Points chooses the instrumentation points per function: "entry"
	// (default), "exits", or "blocks".
	Points string
	// Metrics, when non-nil, receives the rewriter's patch counters
	// (jump-ladder kinds, relocation growth). Nil disables collection.
	Metrics *obs.Registry
	// Trace, when non-nil, records a span per job plus per-phase child spans.
	// TraceTID is the renderer row; Batch gives each worker its own row
	// (TraceTID + worker index) so concurrent jobs draw in parallel.
	Trace    *obs.Tracer
	TraceTID int
}

// Workers resolves the effective worker-pool width.
func (o Options) Workers() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Job is one binary to push through the pipeline. Either File or Source
// must be set; Source is assembled by the worker that picks the job up.
type Job struct {
	Name   string
	Source string
	File   *elfrv.File
	// Funcs lists the functions to instrument with an entry counter each.
	Funcs []string
	// WantExit, with CheckExit set, is the exit code the instrumented
	// binary must still produce (used by verification harnesses).
	WantExit  int
	CheckExit bool
}

// Result is one instrumented binary.
type Result struct {
	Name string
	// ELF is the serialized instrumented executable, byte-identical across
	// worker counts.
	ELF []byte
	// File is the in-memory form of the same image.
	File *elfrv.File
	// Patches records the entry patches the rewriter installed.
	Patches []patch.PatchRecord
	// Counters maps each instrumented function to its counter variable's
	// address in the rewritten binary.
	Counters map[string]uint64
	// WantExit/CheckExit are copied from the job for verification.
	WantExit  int
	CheckExit bool
}

// Stats aggregates per-phase counters and timings across a pipeline run.
// All fields are updated atomically; concurrent workers share one Stats.
// Timing fields accumulate each binary's wall-clock time per phase, so under
// a parallel batch their sum can exceed the batch's elapsed time (and on an
// oversubscribed machine a phase's figure includes time spent descheduled);
// for a clean phase decomposition read them from a -jobs 1 run.
type Stats struct {
	Binaries         atomic.Int64
	FunctionsParsed  atomic.Int64
	BlocksDiscovered atomic.Int64
	InstsDecoded     atomic.Int64
	PatchesPlanned   atomic.Int64
	BytesEmitted     atomic.Int64

	AssembleNanos atomic.Int64
	ParseNanos    atomic.Int64
	PlanNanos     atomic.Int64
	EncodeNanos   atomic.Int64
	SpliceNanos   atomic.Int64
	WriteNanos    atomic.Int64
}

// String renders the counters and per-phase timings as the table rvdyn's
// batch subcommand prints.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "binaries instrumented:  %d\n", s.Binaries.Load())
	fmt.Fprintf(&b, "functions parsed:       %d\n", s.FunctionsParsed.Load())
	fmt.Fprintf(&b, "blocks discovered:      %d\n", s.BlocksDiscovered.Load())
	fmt.Fprintf(&b, "instructions decoded:   %d\n", s.InstsDecoded.Load())
	fmt.Fprintf(&b, "patches planned:        %d\n", s.PatchesPlanned.Load())
	fmt.Fprintf(&b, "bytes emitted:          %d\n", s.BytesEmitted.Load())
	fmt.Fprintf(&b, "phase times (cumulative worker time):\n")
	for _, row := range []struct {
		name string
		ns   int64
	}{
		{"assemble", s.AssembleNanos.Load()},
		{"parse", s.ParseNanos.Load()},
		{"plan", s.PlanNanos.Load()},
		{"encode", s.EncodeNanos.Load()},
		{"splice", s.SpliceNanos.Load()},
		{"write", s.WriteNanos.Load()},
	} {
		fmt.Fprintf(&b, "  %-9s %10.3f ms\n", row.name, float64(row.ns)/1e6)
	}
	return b.String()
}

// Instrument pushes one job through the pipeline: assemble (if needed),
// parse, plan/encode patches, and serialize. stats may be nil.
func Instrument(job Job, opts Options, stats *Stats) (*Result, error) {
	if stats == nil {
		stats = &Stats{}
	}
	points, err := snippet.PointsNamed(opts.Points)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	jobs := opts.Workers()

	span := opts.Trace.Begin(opts.TraceTID, "job:"+job.Name, "pipeline")
	defer span.End()

	file := job.File
	if file == nil {
		t := obs.StartTimer(opts.Trace, opts.TraceTID, "assemble", "pipeline")
		f, err := asm.Assemble(job.Source, asm.Options{})
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: assemble: %w", job.Name, err)
		}
		stats.AssembleNanos.Add(int64(t.Stop()))
		file = f
	}

	st, err := symtab.FromFile(file)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: symtab: %w", job.Name, err)
	}

	t := obs.StartTimer(opts.Trace, opts.TraceTID, "parse", "pipeline")
	cfg, err := parse.Parse(st, parse.Options{Workers: jobs})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: parse: %w", job.Name, err)
	}
	stats.ParseNanos.Add(int64(t.Stop()))
	stats.FunctionsParsed.Add(int64(cfg.Stats.Functions))
	stats.BlocksDiscovered.Add(int64(cfg.Stats.Blocks))
	stats.InstsDecoded.Add(int64(cfg.Stats.Instructions))

	rw := patch.NewRewriter(st, cfg, opts.Mode)
	rw.Jobs = jobs
	rw.Obs = opts.Metrics
	rw.Trace = opts.Trace
	rw.TraceTID = opts.TraceTID
	counters, err := rw.InsertCounters(job.Funcs, points)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", job.Name, err)
	}

	out, err := rw.Rewrite()
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: rewrite: %w", job.Name, err)
	}
	stats.PlanNanos.Add(int64(rw.Phases.Plan + rw.Phases.Layout))
	stats.EncodeNanos.Add(int64(rw.Phases.Encode))
	stats.SpliceNanos.Add(int64(rw.Phases.Splice))
	stats.PatchesPlanned.Add(int64(len(rw.Patches)))

	t = obs.StartTimer(opts.Trace, opts.TraceTID, "write", "pipeline")
	raw, err := out.Write()
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: write: %w", job.Name, err)
	}
	stats.WriteNanos.Add(int64(t.Stop()))
	stats.BytesEmitted.Add(int64(len(raw)))
	stats.Binaries.Add(1)

	return &Result{
		Name: job.Name, ELF: raw, File: out, Patches: rw.Patches,
		Counters: counters, WantExit: job.WantExit, CheckExit: job.CheckExit,
	}, nil
}

// Batch pushes every job through the pipeline concurrently (bounded by
// opts.Jobs) and returns results in job order. The first error aborts the
// report but the slice still carries every result completed before it.
// Callers that need to distinguish which jobs failed — rvdyn batch's exit
// status, the server's per-request error mapping — use BatchAll instead.
func Batch(jobs []Job, opts Options) ([]*Result, *Stats, error) {
	results, errs, stats := BatchAll(jobs, opts)
	for i, err := range errs {
		if err != nil {
			return results, stats, fmt.Errorf("pipeline: job %d (%s): %w", i, jobs[i].Name, err)
		}
	}
	return results, stats, nil
}

// BatchAll is Batch without the first-error collapse: every job runs to
// completion or failure independently, and the returned error slice is
// parallel to the results — errs[i] != nil exactly when results[i] is nil.
func BatchAll(jobs []Job, opts Options) ([]*Result, []error, *Stats) {
	stats := &Stats{}
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))

	width := opts.Workers()
	if width > len(jobs) {
		width = len(jobs)
	}
	// Split the budget between the cross-binary pool and the per-binary
	// fan-out: once the batch saturates the pool, intra-binary parallelism
	// only adds scheduling overhead, so collapse it to the serial path.
	// Output bytes are identical either way.
	inner := opts.Workers() / max(width, 1)
	if inner < 1 {
		inner = 1
	}
	innerOpts := opts
	innerOpts.Jobs = inner
	par.ForEach(width, len(jobs), func(k, i int) {
		// Each worker traces onto its own tid so concurrent jobs render as
		// parallel rows rather than one interleaved mess.
		workerOpts := innerOpts
		workerOpts.TraceTID = opts.TraceTID + k
		results[i], errs[i] = Instrument(jobs[i], workerOpts, stats)
	})
	return results, errs, stats
}

// ErrorSummary renders the per-job failure table for a BatchAll run: one
// line per failed job plus a failed/total header. It returns "" when every
// job succeeded, so callers can gate their exit status on the summary.
func ErrorSummary(jobs []Job, errs []error) string {
	var b strings.Builder
	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		name := fmt.Sprintf("job %d", i)
		if i < len(jobs) && jobs[i].Name != "" {
			name = jobs[i].Name
		}
		fmt.Fprintf(&b, "  %-14s %v\n", name, err)
	}
	if failed == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d jobs failed:\n%s", failed, len(errs), b.String())
}

// WorkloadJobs returns one job per internal/workload program, instrumenting
// every entry-patchable function the suite declares.
func WorkloadJobs() []Job {
	var out []Job
	for _, p := range workload.Programs() {
		out = append(out, Job{
			Name: p.Name, Source: p.Source, Funcs: p.Funcs,
			WantExit: p.ExitCode, CheckExit: true,
		})
	}
	return out
}

// SyntheticJobs returns n random multi-function programs (deterministic in
// their index) for scaling benchmarks; each instruments instrFuncs of its
// nFuncs functions.
func SyntheticJobs(n, nFuncs, instrFuncs int) []Job {
	if instrFuncs > nFuncs {
		instrFuncs = nFuncs
	}
	var out []Job
	for i := 0; i < n; i++ {
		var funcs []string
		for j := 0; j < instrFuncs; j++ {
			funcs = append(funcs, fmt.Sprintf("fz%d", j*(nFuncs/instrFuncs)))
		}
		out = append(out, Job{
			Name:   fmt.Sprintf("synthetic%d", i),
			Source: workload.RandomProgram(int64(1000+i), nFuncs),
			Funcs:  funcs,
		})
	}
	return out
}
