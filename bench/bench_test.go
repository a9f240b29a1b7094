package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rvdyn/internal/elfrv"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, ours)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, harness %s %s",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 5, 9}, 3, 9},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, pct, beyond int }{
		{minOps, tailPct, minTailSamples},
		{minOps - 1, tailPct, minTailSamples - 1},
		{1000, 99, 10},
		{999, 99, 9},
		{5000, 99, 50},
		{100, 50, 50},
		{1, 99, 0},
	} {
		if got := c.n - 1 - rankIndex(c.n, c.pct); got != c.beyond {
			t.Errorf("n=%d p%d: %d samples beyond, want %d", c.n, c.pct, got, c.beyond)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	d := summarize(xs, 99)
	if d.Tail != 990 || d.Beyond != 10 || d.Median != 500.5 || d.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
}

// TestSmoke runs every workload for a short window in both modes: no
// operation may fail, and the run must report exactly the metrics
// BENCHMARK.json declares for its mode.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(w, config{seed: 3, window: 200 * time.Millisecond, trace: trace, minOps: 1, setupReps: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, rep.Failed, rep.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for i, m := range rep.Metrics {
				if m.Name != defs[i].name || m.Unit != defs[i].unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %d is %s=%v %s, want %s in %s",
						w.name, trace, i, m.Name, m.Value, m.Unit, defs[i].name, defs[i].unit)
				}
			}
			if _, err := resultLine(rep); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestVerifierRejectsMutation changes one byte of an output and expects
// each workload's check to refuse it.
func TestVerifierRejectsMutation(t *testing.T) {
	env := &runEnv{seed: 5}

	t.Run("matmul-bbcount", func(t *testing.T) {
		inst, err := setupMatmul(env)
		if err != nil {
			t.Fatal(err)
		}
		m := inst.(*matmulInst)
		if err := m.reference(); err != nil {
			t.Fatal(err)
		}
		f, err := elfrv.Read(m.input)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rewrite(nil, f, matmulSpec)
		if err != nil {
			t.Fatal(err)
		}
		r.elf[len(r.elf)/2] ^= 1
		if err := m.ref.check(r, m.ref.exit, nil); err == nil {
			t.Error("mutated ELF accepted")
		}
	})

	t.Run("rewrite-synth", func(t *testing.T) {
		inst, err := setupRewriteSynth(env)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := elfrv.Read(inst.(*synthInst).inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		r, err := rewrite(nil, orig, synthSpec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkSynth(orig, r); err != nil {
			t.Fatalf("unmutated output rejected: %v", err)
		}
		// A counter that starts at 1 instead of 0.
		r.file.Section(".dyninst.data").Data[0] ^= 1
		if _, err := checkSynth(orig, r); err == nil || !strings.Contains(err.Error(), "counter") {
			t.Errorf("mutated counter accepted (err %v)", err)
		}
	})

	t.Run("serve-mix", func(t *testing.T) {
		inst, err := setupServeMix(env)
		if err != nil {
			t.Fatal(err)
		}
		m := inst.(*serveInst)
		defer m.close()
		p, err := m.freshPayload(42, "entry")
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := m.post(m.clients[0], p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := m.checkCold(42, []coldResponse{{42, "entry", sha256.Sum256(body)}}); n != 0 || err != nil {
			t.Fatalf("served response rejected: %d, %v", n, err)
		}
		body[len(body)/2] ^= 1
		if n, err := m.checkCold(42, []coldResponse{{42, "entry", sha256.Sum256(body)}}); n != 1 || err != nil {
			t.Errorf("mutated response: %d failures, %v", n, err)
		}
	})
}
