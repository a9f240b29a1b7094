package pipeline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden ELF files from the serial pipeline")

// TestGoldenDeterminism instruments every workload program at -jobs 1, 2, and
// 8 and byte-compares each output ELF against the committed golden file. The
// goldens pin the exact serialized image, so any schedule-dependent ordering
// that leaks into layout, ladder assignment, or section emission fails here
// even if all worker counts agree with each other. Regenerate with:
//
//	go test ./internal/pipeline/ -run TestGoldenDeterminism -update
func TestGoldenDeterminism(t *testing.T) {
	for _, job := range WorkloadJobs() {
		job := job
		t.Run(job.Name, func(t *testing.T) {
			golden := filepath.Join("testdata", "golden", job.Name+".elf")

			serial, err := Instrument(job, Options{Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, serial.ELF, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate goldens)", err)
			}
			if !bytes.Equal(serial.ELF, want) {
				t.Fatalf("jobs=1 output differs from golden %s: %s", golden, firstDiff(serial.ELF, want))
			}
			for _, n := range []int{2, 8} {
				res, err := Instrument(job, Options{Jobs: n})
				if err != nil {
					t.Fatalf("jobs=%d: %v", n, err)
				}
				if !bytes.Equal(res.ELF, want) {
					t.Errorf("jobs=%d output differs from golden %s: %s", n, golden, firstDiff(res.ELF, want))
				}
			}
		})
	}
}

func firstDiff(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("first mismatch at offset %#x: %#02x vs %#02x", i, got[i], want[i])
		}
	}
	return "identical"
}
