package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
)

// warmupOps untimed operations follow every set-up, so caches fill and lazy
// initialization finishes before the window.
const warmupOps = 20

// maxUnattributedPct is the most of a traced operation's wall time that may
// fall outside every top-level layer span before the traced run fails.
const maxUnattributedPct = 5

// workloadDef is one set of inputs the benchmark drives, as a closed loop:
// each of its clients sends its next operation once the previous one
// returns.
type workloadDef struct {
	name    string
	clients int
	setup   func(env *runEnv) (instance, error)
}

var workloads = []workloadDef{
	{"matmul-bbcount", 1, setupMatmul},
	{"fib-dbi", 1, setupFibDBI},
	{"rewrite-synth", 1, setupRewriteSynth},
	{"serve-mix", 2, setupServeMix},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one set-up of a workload: its inputs and the system under
// test, ready to run operations.
type instance interface {
	// op runs one operation for the given client. It brackets the system
	// calls with o.begin and o.done, checks the output after o.done against
	// the references (once reference has run), and returns an error for a
	// failed or wrong operation.
	op(client int, o *opRec) error
	// reference computes the expected outputs from sources independent of
	// the layers under test. It runs after set-up, outside its timing, and
	// right before the window.
	reference() error
	// finish runs the checks that wait for the end of the window and
	// returns how many window operations they found wrong.
	finish() (failed int, err error)
	// layerMetrics adds the workload's per-layer metrics for a traced run.
	layerMetrics(m map[string]float64, w *window) error
	close()
}

// runEnv is what a workload's set-up gets from the harness.
type runEnv struct {
	seed  int64
	spans *spanLog // nil in an untraced run

	mu    sync.Mutex
	asmUS []float64 // every asm.Assemble call the benchmark made, in µs
}

// assemble assembles src, timing the call for asm.assemble_us.
func (e *runEnv) assemble(src string) (*elfrv.File, error) {
	t := time.Now()
	f, err := asm.Assemble(src, asm.Options{})
	us := float64(time.Since(t).Nanoseconds()) / 1e3
	e.mu.Lock()
	e.asmUS = append(e.asmUS, us)
	e.mu.Unlock()
	return f, err
}

type config struct {
	seed   int64
	window time.Duration
	trace  bool
	minOps int // a window with fewer operations fails the run
	// The workload is set up at least setupReps times and for at least
	// setupMin; setup_s is the median and the last set-up runs the window.
	setupReps int
	setupMin  time.Duration
}

// window is what the timed window measured. Operation times are in ms, raw
// and normalized to the reference host (see calib.go).
type window struct {
	ops, traced, failed int
	elapsed             time.Duration
	raw, norm           []float64
	tracedMS, untraced  []float64
	allocBytes, gcs     uint64
	classes             map[string]*classStat
	attr                attribution   // traced runs only
	setupRaw, setupNorm []float64     // s
	calWindow           time.Duration // median kernel time
}

// classStat totals the operations one class label covers.
type classStat struct {
	n    int
	time time.Duration
}

// report is one run's result; results-NAME.json is its JSON form.
type report struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Correct   bool        `json:"correct"`
	CalibUS   float64     `json:"calibration_us"` // median kernel time in the window
	Metrics   []metricOut `json:"metrics"`

	spans *spanLog // the traced run's spans, for the Chrome trace
}

// metricOut is one reported metric. Dist holds the sample it was read from,
// when it was read from one; Samples counts the operations or calls a
// metric averages over. For a normalized time, Raw is the value before
// normalization.
type metricOut struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Raw     float64 `json:"raw,omitempty"`
	Dist    *dist   `json:"dist,omitempty"`
	RawDist *dist   `json:"raw_dist,omitempty"`
}

// run sets the workload up repeatedly, computes its references,
// runs the timed window on the last set-up and reports the metrics of the
// run's mode.
func run(w workloadDef, cfg config) (*report, error) {
	env := &runEnv{seed: cfg.seed}
	if cfg.trace {
		env.spans = newSpanLog()
	}
	var inst instance
	var setupRaw, setupNorm []float64
	cal := newCalibrator()
	first := time.Now()
	for r := 0; r < cfg.setupReps || time.Since(first) < cfg.setupMin; r++ {
		if inst != nil {
			inst.close()
		}
		c := cal.median(5)
		t := time.Now()
		var err error
		inst, err = w.setup(env)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for k := 0; k < warmupOps; k++ {
			if err := inst.op(k%w.clients, &opRec{}); err != nil {
				inst.close()
				return nil, fmt.Errorf("%s: warm-up operation %d: %w", w.name, k, err)
			}
		}
		s := time.Since(t).Seconds()
		setupRaw = append(setupRaw, s)
		setupNorm = append(setupNorm, s*hostScale(c))
	}
	defer inst.close()
	if err := inst.reference(); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.name, err)
	}

	win := runWindow(w, inst, env, cfg)
	win.setupRaw, win.setupNorm = setupRaw, setupNorm
	post, err := inst.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: post-window check: %w", w.name, err)
	}
	win.failed += post
	if win.ops < cfg.minOps {
		return nil, fmt.Errorf("%s: only %d operations in the window, need %d", w.name, win.ops, cfg.minOps)
	}

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Attempted: win.ops, Failed: win.failed, Correct: win.failed == 0,
		CalibUS: float64(win.calWindow.Nanoseconds()) / 1e3,
		spans:   env.spans,
	}
	if cfg.trace {
		rep.Metrics, err = layerReport(inst, win, env)
	} else {
		rep.Metrics = endToEndReport(win)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, nil
}

// opOutcome is one operation of the window.
type opOutcome struct {
	at, dur time.Duration // start, relative to the window start
	traced  bool
	failed  bool
	class   string
}

// runWindow runs the workload's clients until the window closes. Each
// client runs the calibration kernel between operations every calibEvery.
// In a traced run every other operation of each client is traced, so the
// traced and untraced operation times come from the same stretch of time.
func runWindow(w workloadDef, inst instance, env *runEnv, cfg config) *window {
	var ids atomic.Int64
	var logged atomic.Int32
	results := make([][]opOutcome, w.clients)
	cals := make([]*calibrator, w.clients)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(cfg.window)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		cals[c] = newCalibrator()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]opOutcome, 0, 4096)
			// A traced run needs both a traced and an untraced operation.
			for k := 0; time.Now().Before(deadline) || (cfg.trace && k < 2); k++ {
				cals[c].sample(start)
				o := &opRec{tid: c + 1}
				if cfg.trace && k%2 == 0 {
					o.log, o.id = env.spans, ids.Add(1)
				}
				called := time.Now()
				err := inst.op(c, o)
				if o.t0.IsZero() {
					o.t0 = called
				}
				if o.t1.IsZero() {
					o.t1 = time.Now()
					if err == nil {
						err = errors.New("operation did not time itself")
					}
				}
				if o.traced() {
					env.spans.record(o.id, o.tid, "op", "", o.t0, o.t1)
				}
				if err != nil && logged.Add(1) <= 10 {
					fmt.Fprintf(os.Stderr, "bench: %s: client %d operation %d: %v\n", w.name, c, k, err)
				}
				out = append(out, opOutcome{o.t0.Sub(start), o.t1.Sub(o.t0), o.traced(), err != nil, o.class})
			}
			results[c] = out
		}(c)
	}
	wg.Wait()
	win := &window{elapsed: time.Since(start), classes: map[string]*classStat{}}
	runtime.ReadMemStats(&ms1)
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	win.gcs = uint64(ms1.NumGC - ms0.NumGC)

	var cal []calSample
	for _, c := range cals {
		cal = append(cal, c.samples...)
	}
	sort.Slice(cal, func(i, j int) bool { return cal[i].at < cal[j].at })
	win.calWindow = calMedian(cal)
	for _, rs := range results {
		for _, r := range rs {
			ms := float64(r.dur.Nanoseconds()) / 1e6
			win.ops++
			win.raw = append(win.raw, ms)
			win.norm = append(win.norm, ms*hostScale(localCal(cal, r.at)))
			if r.traced {
				win.traced++
				win.tracedMS = append(win.tracedMS, ms)
			} else {
				win.untraced = append(win.untraced, ms)
			}
			if r.failed {
				win.failed++
			}
			if r.class != "" {
				cs := win.classes[r.class]
				if cs == nil {
					cs = &classStat{}
					win.classes[r.class] = cs
				}
				cs.n++
				cs.time += r.dur
			}
		}
	}
	if env.spans != nil {
		win.attr = env.spans.attribute()
	}
	return win
}

// endToEndReport builds the end-to-end metrics of an untraced run. The
// times and the throughput are normalized to the reference host.
func endToEndReport(win *window) []metricOut {
	ops, rawOps := summarize(win.norm, tailPct), summarize(win.raw, tailPct)
	setup, rawSetup := summarize(win.setupNorm, 0), summarize(win.setupRaw, 0)
	n := float64(win.ops)
	perS := n / win.elapsed.Seconds()
	// Throughput scales by the same factors as the operations it counts.
	scale := ops.Mean / rawOps.Mean
	return []metricOut{
		{Name: "setup_s", Value: setup.Median, Unit: "s", Samples: setup.N, Raw: rawSetup.Median, Dist: &setup, RawDist: &rawSetup},
		{Name: "op_ms_p50", Value: ops.Median, Unit: "ms", Samples: ops.N, Raw: rawOps.Median, Dist: &ops, RawDist: &rawOps},
		{Name: "op_ms_p95", Value: ops.Tail, Unit: "ms", Samples: ops.N, Raw: rawOps.Tail, Dist: &ops, RawDist: &rawOps},
		{Name: "ops_per_s", Value: perS / scale, Unit: "1/s", Samples: win.ops, Raw: perS},
		{Name: "alloc_kb_per_op", Value: float64(win.allocBytes) / 1024 / n, Unit: "KiB", Samples: win.ops},
	}
}

// layerReport builds the per-layer metrics of a traced run: the harness's
// own (time attribution, tracing overhead, assembly, GC) plus those the
// workload adds. Every per-layer metric is reported; one the workload has
// no layer for reads 0. Per-layer times are raw.
func layerReport(inst instance, win *window, env *runEnv) ([]metricOut, error) {
	a := win.attr
	m := map[string]float64{}
	for _, l := range layerSpans {
		m[l+"_pct"] = a.pct(a.self[l])
	}
	m["bench.unattributed_pct"] = a.pct(a.unattributed)
	traced, untraced := summarize(win.tracedMS, 0), summarize(win.untraced, 0)
	m["bench.trace_overhead_pct"] = 100 * (traced.Median/untraced.Median - 1)
	m["bench.traced_op_ms_mean"] = float64(a.wall.Nanoseconds()) / 1e6 / float64(win.traced)
	asmD := summarize(env.asmUS, 0)
	m["asm.assemble_us"] = asmD.Median
	m["runtime.gc_cycles_per_op"] = float64(win.gcs) / float64(win.ops)
	if err := inst.layerMetrics(m, win); err != nil {
		return nil, err
	}
	if u := m["bench.unattributed_pct"]; u > maxUnattributedPct {
		return nil, fmt.Errorf("%.2f%% of traced operation time is outside every layer span (limit %d%%)", u, maxUnattributedPct)
	}

	known := map[string]bool{}
	out := make([]metricOut, 0, len(perLayer))
	for _, d := range perLayer {
		known[d.name] = true
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		mo := metricOut{Name: d.name, Value: v, Unit: d.unit, Samples: win.traced}
		switch d.name {
		case "bench.trace_overhead_pct":
			mo.Samples, mo.Dist = traced.N, &traced
		case "asm.assemble_us":
			mo.Samples, mo.Dist = asmD.N, &asmD
		case "runtime.gc_cycles_per_op":
			mo.Samples = win.ops
		}
		out = append(out, mo)
	}
	for name := range m {
		if !known[name] {
			return nil, fmt.Errorf("workload reported undeclared metric %q", name)
		}
	}
	return out, nil
}
