// Command bench is rvdyn's end-to-end and per-layer benchmark. Each run
// drives one workload through the layers' public functions for a fixed
// window, checks every operation's output against a reference that does not
// use the layers under test, and prints its metrics:
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it wraps each layer call in a span and reads the
// layers' metric registries, and reports the per-layer metrics. Every
// metric prints as a "workload metric value unit" line; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The full result, with the median, quartiles and
// sample count behind each metric, goes to .bench_build/results-NAME.json
// (and the Chrome trace of a traced run to .bench_build/trace-NAME.json).
// The exit status is nonzero when any operation fails or a check does not
// hold. See README.md for the workloads and the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// outDir holds result files, relative to the directory the benchmark runs
// in (the repository root).
const outDir = ".bench_build"

// Each run sets its workload up at least setupReps times and for at least
// setupMin; setup_s is the median. Short set-ups (serve-mix takes about
// 25 ms) repeat more, so their median holds still.
const (
	setupReps = 9
	setupMin  = 2 * time.Second
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs and the request schedule")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	rep, err := run(w, config{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		minOps:    minOps,
		setupReps: setupReps,
		setupMin:  setupMin,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := writeResults(rep); err != nil {
		log.Fatal(err)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("%s %s %v %s\n", rep.Workload, m.Name, m.Value, m.Unit)
	}
	line, err := resultLine(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(line)
	if !rep.Correct {
		log.Fatalf("%s: %d of %d operations failed", rep.Workload, rep.Failed, rep.Attempted)
	}
}

// resultLine is the one-line JSON summary that ends standard output.
func resultLine(rep *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range rep.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	return string(b), err
}

// writeResults writes results-NAME.json (results-NAME-trace.json for a
// traced run) and, for a traced run, the Chrome trace.
func writeResults(rep *report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := "results-" + rep.Workload
	if rep.Trace {
		base += "-trace"
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+rep.Workload+".json"))
	if err != nil {
		return err
	}
	if err := rep.spans.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
