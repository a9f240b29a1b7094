package main

import (
	"errors"
	"strings"
	"testing"
)

var testMetrics = []metricSpec{
	{Name: "op_ms_p50", Better: "lower", Bound: 0.2},
	{Name: "ops_per_s", Better: "higher", Bound: 0.2},
}

// runs makes one untraced run per value of op_ms_p50, with ops_per_s its
// inverse, each of 1000 operations none of which failed.
func runs(ms ...float64) []result {
	var rs []result
	for _, v := range ms {
		rs = append(rs, result{Attempted: 1000, Metrics: metrics(map[string]float64{"op_ms_p50": v, "ops_per_s": 1000 / v})})
	}
	return rs
}

func traced(m map[string]float64) result { return result{Attempted: 100, Metrics: metrics(m)} }

func metrics(m map[string]float64) map[string]struct{ Value float64 } {
	v := map[string]struct{ Value float64 }{}
	for name, x := range m {
		v[name] = struct{ Value float64 }{x}
	}
	return v
}

func TestJudge(t *testing.T) {
	steady := append(runs(10, 10.2, 9.9), traced(nil))
	tooFew := parseRun([]byte("matmul-bbcount setup_s 0.25 s\n"),
		[]byte("bench: matmul-bbcount: only 180 operations in the window, need 200\n"), errors.New("exit status 1"))
	for _, tc := range []struct {
		name           string
		parent, change []result
		fail           bool
		want           string // a report line must contain it
	}{
		{"same", steady, append(runs(10.1, 9.8, 10), traced(nil)), false, "op_ms_p50 parent 10 "},
		{"within bound", steady, append(runs(11.5, 11.9, 11.7), traced(nil)), false, "worse +17.0% bound 20%: ok"},
		{"lower is better, beyond bound", steady, append(runs(12.6, 12.4, 12.5), traced(nil)), true,
			"op_ms_p50 parent 10 [9.9 10.2] change 12.5 [12.4 12.6] worse +25.0% bound 20%: FAIL"},
		{"higher is better, beyond bound", steady, append([]result{
			{Attempted: 1000, Metrics: metrics(map[string]float64{"op_ms_p50": 10, "ops_per_s": 70})},
			{Attempted: 1000, Metrics: metrics(map[string]float64{"op_ms_p50": 10, "ops_per_s": 75})},
			{Attempted: 1000, Metrics: metrics(map[string]float64{"op_ms_p50": 10, "ops_per_s": 72})},
		}, traced(nil)), true, "ops_per_s parent 100 [98.04 101] change 72 [70 75] worse +28.0% bound 20%: FAIL"},
		{"noisy parent", append(runs(10, 14, 9), traced(nil)), append(runs(13, 12.6, 12.5), traced(nil)), false,
			"worse +26.0% bound 20%: unresolved (parent spread 50.0%)"},
		{"noisy parent, change beats every run", append(runs(10, 14, 9), traced(nil)), append(runs(8, 8.5, 7), traced(nil)), false,
			"worse -20.0% bound 20%: ok"},
		{"failed share rose", steady, append(runs(10, 10, 10), result{Attempted: 100, Failed: 1}), true,
			"failed operations parent 0 of 3100 change 1 of 3100: FAIL"},
		{"overhead_pct rose", append(runs(10, 10, 10), traced(map[string]float64{"overhead_pct": 12.5})),
			append(runs(10, 10, 10), traced(map[string]float64{"overhead_pct": 12.6})), true,
			"overhead_pct parent 12.5 change 12.6 (traced, exact): FAIL"},
		{"raw_per_native rose", append(runs(10, 10, 10), traced(map[string]float64{"dbi.raw_per_native": 3.095})),
			append(runs(10, 10, 10), traced(map[string]float64{"dbi.raw_per_native": 3.1})), true,
			"dbi.raw_per_native parent 3.095 change 3.1 (traced, exact): FAIL"},
		{"raw_per_native fell", append(runs(10, 10, 10), traced(map[string]float64{"dbi.raw_per_native": 3.095})),
			append(runs(10, 10, 10), traced(map[string]float64{"dbi.raw_per_native": 3})), false,
			"dbi.raw_per_native parent 3.095 change 3 (traced, exact): ok"},
		{"run exited nonzero", steady, append(append(runs(10, 10), tooFew), traced(nil)), true,
			"change run failed (exit status 1: bench: matmul-bbcount: only 180 operations in the window, need 200): FAIL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines, fail := judge(testMetrics, tc.parent, tc.change)
			report := strings.Join(lines, "\n")
			if fail != tc.fail {
				t.Errorf("fail = %v, want %v; report:\n%s", fail, tc.fail, report)
			}
			if !strings.Contains(report, tc.want) {
				t.Errorf("report lacks %q:\n%s", tc.want, report)
			}
		})
	}
}

func TestParseRun(t *testing.T) {
	out := "fib-dbi op_ms_p50 1.36 ms\n" +
		`{"correct":true,"attempted":14000,"failed":0,"metrics":{"op_ms_p50":{"value":1.36,"unit":"ms"}}}` + "\n"
	r := parseRun([]byte(out), nil, nil)
	if r.err != "" || r.Attempted != 14000 || r.Metrics["op_ms_p50"].Value != 1.36 {
		t.Errorf("parseRun = %+v", r)
	}
	if r := parseRun([]byte("fib-dbi op_ms_p50 1.36 ms\n"), nil, nil); r.err != "no result line: " {
		t.Errorf("run without a result line: err = %q", r.err)
	}
}

// TestBenchmarkSpec loads the repository's BENCHMARK.json, which the gate
// reads its workloads, run length, metrics and bounds from.
func TestBenchmarkSpec(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json has no end_to_end metrics")
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
}
