// Command benchgate is the perf gate. From a change's checkout root it runs
// BENCHMARK.json's benchmark back to back there and in the parent's checkout:
//
//	go run ./cmd/benchgate PARENT_DIR
//
// Per workload it runs `pairs` alternating pairs of untraced runs on seeds 1,
// 2, ... (the parent first in odd pairs), then one traced run per side. It
// fails when a run fails or prints no result line, the failed share rises,
// an end_to_end metric's median is worse than the parent's by more than its
// bound, or an exactMetrics value of the traced run rises. A metric whose
// parent spread, (max − min) / median, exceeds its bound is unresolved
// instead, unless every change run beats every parent run.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// pairs is the number of alternating parent/change pairs per workload.
const pairs = 3

// exactMetrics repeat exactly for a given commit; any rise fails the gate.
var exactMetrics = []string{"overhead_pct", "dbi.raw_per_native"}

type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median
}

// result is one benchmark run: its final JSON line, or in err why it has
// none (with the end of its standard error).
type result struct {
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
	err               string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	if len(os.Args) != 2 {
		log.Fatal("usage: go run ./cmd/benchgate PARENT_DIR (from the change's checkout root)")
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	for _, w := range sp.Workloads {
		var sides [2][]result // per side, the untraced runs, then the traced one
		run := func(j, seed, trace int) result {
			args := []string{"--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", strconv.Itoa(trace)}
			cmd := exec.Command(sp.Command[0], append(slices.Clip(sp.Command[1:]), args...)...)
			cmd.Dir = [2]string{os.Args[1], "."}[j]
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			r := parseRun(stdout.Bytes(), stderr.Bytes(), err)
			fmt.Printf("%s seed %d trace %d %s: %d of %d operations failed %s\n",
				w.Name, seed, trace, [2]string{"parent", "change"}[j], r.Failed, r.Attempted, r.err)
			return r
		}
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				j := (i + k) % 2 // pair i+1 starts with the parent when i+1 is odd
				sides[j] = append(sides[j], run(j, i+1, 0))
			}
		}
		for j := range sides {
			sides[j] = append(sides[j], run(j, 1, 1))
		}
		lines, fail := judge(sp.EndToEnd, sides[0], sides[1])
		fmt.Printf("%s %s\n", w.Name, strings.Join(lines, "\n"+w.Name+" "))
		failed = failed || fail
	}
	if failed {
		fmt.Println("perf gate FAILED")
		os.Exit(1)
	}
	fmt.Println("perf gate passed")
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Command) == 0 || sp.RunSeconds < 1 || len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("%s: needs command, run_seconds and workloads", path)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || (m.Better != "lower" && m.Better != "higher") {
			return nil, fmt.Errorf("%s: end_to_end %q needs a positive bound and better lower or higher", path, m.Name)
		}
	}
	return &sp, nil
}

// parseRun reads a run's last line of standard output, the benchmark's
// {"correct", "attempted", "failed", "metrics"} object.
func parseRun(stdout, stderr []byte, runErr error) result {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil && runErr == nil {
		runErr = fmt.Errorf("no result line")
	}
	if runErr != nil {
		tail := strings.Split(strings.TrimSpace(string(stderr)), "\n")
		r.err = fmt.Sprintf("%v: %s", runErr, strings.Join(tail[max(0, len(tail)-3):], " / "))
	}
	return r
}

// judge compares the parent's runs of one workload with the change's, the
// traced run last on each side, and returns the report lines and whether the
// gate fails.
func judge(metrics []metricSpec, parent, change []result) (lines []string, fail bool) {
	report := func(bad bool, format string, args ...any) {
		fail = fail || bad
		lines = append(lines, fmt.Sprintf(format, args...)+": "+map[bool]string{false: "ok", true: "FAIL"}[bad])
	}
	var failed, attempted [2]int
	for j, s := range [2][]result{parent, change} {
		for _, r := range s {
			failed[j], attempted[j] = failed[j]+r.Failed, attempted[j]+r.Attempted
			if r.err != "" {
				report(true, "%s run failed (%s)", [2]string{"parent", "change"}[j], r.err)
			}
		}
	}
	report(failed[1]*attempted[0] > failed[0]*attempted[1], "failed operations parent %d of %d change %d of %d",
		failed[0], attempted[0], failed[1], attempted[1])
	for _, m := range metrics {
		p, c := values(parent, m.Name), values(change, m.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		pm, cm := median(p), median(c)
		worse, spread := (cm-pm)/pm, (slices.Max(p)-slices.Min(p))/pm
		beats := slices.Max(c) < slices.Min(p)
		if m.Better == "higher" {
			worse, beats = -worse, slices.Min(c) > slices.Max(p)
		}
		line := fmt.Sprintf("%s parent %.4g [%.4g %.4g] change %.4g [%.4g %.4g] worse %+.1f%% bound %.0f%%",
			m.Name, pm, slices.Min(p), slices.Max(p), cm, slices.Min(c), slices.Max(c), 100*worse, 100*m.Bound)
		if spread > m.Bound && !beats {
			lines = append(lines, fmt.Sprintf("%s: unresolved (parent spread %.1f%%)", line, 100*spread))
			continue
		}
		report(worse > m.Bound, "%s", line)
	}
	for _, name := range exactMetrics {
		pv, pok := parent[len(parent)-1].Metrics[name]
		cv, cok := change[len(change)-1].Metrics[name]
		if pok && cok {
			report(cv.Value > pv.Value, "%s parent %v change %v (traced, exact)", name, pv.Value, cv.Value)
		}
	}
	return lines, fail
}

// values is the metric's value in every untraced run that produced one; the
// traced run is last.
func values(runs []result, name string) []float64 {
	var v []float64
	for _, r := range runs[:len(runs)-1] {
		if x, ok := r.Metrics[name]; ok {
			v = append(v, x.Value)
		}
	}
	return v
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
