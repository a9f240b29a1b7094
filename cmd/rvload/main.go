// Command rvload is the load-generator client for the rvdynd
// instrumentation server (rvdyn serve). It builds a payload set from the
// workload suite — half submitted as assembly source, half pre-assembled
// and submitted as ELF binaries — and drives a sustained concurrent burst
// of instrumentation requests against the server, checking three things a
// metrics scrape alone cannot:
//
//   - byte consistency: every response for the same payload must be
//     byte-identical (a torn cache entry or non-deterministic rewrite shows
//     up here);
//   - cache effectiveness: the observed hit rate over the burst, gated by
//     -min-hit-rate for CI;
//   - tail latency: client-side cold/warm latency quantiles.
//
// Exit status is nonzero on any transport error, byte inconsistency, or a
// hit rate below the gate.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rvdyn/internal/asm"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

var (
	addrFlag    = flag.String("addr", "127.0.0.1:8642", "server address")
	nFlag       = flag.Int("n", 120, "total requests to send")
	cFlag       = flag.Int("c", 4, "concurrent client workers")
	workFlag    = flag.String("workloads", "", "comma-separated workload names (default: all)")
	minHitFlag  = flag.Float64("min-hit-rate", -1, "fail if the cache hit(+coalesced) rate is below this fraction")
	promOut     = flag.String("prom-out", "", "scrape /metrics (Prometheus text exposition) into `FILE` after the burst, validating that it parses")
	timeoutFlag = flag.Duration("timeout", 30*time.Second, "per-request timeout")
)

// payload is one prebuilt multipart body, reused verbatim so every
// submission of it is content-identical (and therefore cacheable).
type payload struct {
	name        string
	body        []byte
	contentType string
}

func buildPayloads() []payload {
	want := map[string]bool{}
	if *workFlag != "" {
		for _, n := range strings.Split(*workFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	var out []payload
	for i, p := range workload.Programs() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		spec := fmt.Sprintf(`{"name":%q,"funcs":[%s]}`, p.Name, quoteList(p.Funcs))
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		mw.WriteField("spec", spec)
		if i%2 == 0 {
			// Binary submission: assemble locally, upload the ELF.
			f, err := asm.Assemble(p.Source, asm.Options{})
			if err != nil {
				log.Fatalf("assemble %s: %v", p.Name, err)
			}
			raw, err := f.Write()
			if err != nil {
				log.Fatalf("serialize %s: %v", p.Name, err)
			}
			fw, _ := mw.CreateFormFile("binary", p.Name+".elf")
			fw.Write(raw)
		} else {
			mw.WriteField("source", p.Source)
		}
		mw.Close()
		out = append(out, payload{name: p.Name, body: buf.Bytes(), contentType: mw.FormDataContentType()})
	}
	if len(out) == 0 {
		log.Fatalf("no payloads selected (workloads %q)", *workFlag)
	}
	return out
}

func quoteList(ss []string) string {
	qs := make([]string, len(ss))
	for i, s := range ss {
		qs[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(qs, ",")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rvload: ")
	flag.Parse()

	payloads := buildPayloads()
	base := "http://" + *addrFlag
	client := &http.Client{Timeout: *timeoutFlag}

	var (
		hits, coalesced, misses, partials, errors atomic.Int64
		latCold                                   = obs.NewHistogram(obs.ExpBuckets(1000, 2, 25))
		latWarm                                   = obs.NewHistogram(obs.ExpBuckets(1000, 2, 25))
		mu                                        sync.Mutex
		firstHash                                 = map[string][32]byte{}
		inconsistent                              atomic.Int64
	)

	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < *cFlag; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *nFlag {
					return
				}
				p := payloads[i%len(payloads)]
				t0 := time.Now()
				req, err := http.NewRequest("POST", base+"/v1/instrument", bytes.NewReader(p.body))
				if err != nil {
					log.Print(err)
					errors.Add(1)
					continue
				}
				req.Header.Set("Content-Type", p.contentType)
				resp, err := client.Do(req)
				if err != nil {
					log.Print(err)
					errors.Add(1)
					continue
				}
				elf, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					log.Printf("%s: status %d: %s", p.name, resp.StatusCode, strings.TrimSpace(string(elf)))
					errors.Add(1)
					continue
				}
				elapsed := uint64(time.Since(t0).Nanoseconds())
				switch state := resp.Header.Get("X-Rvdynd-Cache"); {
				case state == "hit":
					hits.Add(1)
					latWarm.Observe(elapsed)
				case state == "coalesced":
					coalesced.Add(1)
					latWarm.Observe(elapsed)
				case strings.HasPrefix(state, "partial:"):
					partials.Add(1)
					latCold.Observe(elapsed)
				default:
					misses.Add(1)
					latCold.Observe(elapsed)
				}
				sum := sha256.Sum256(elf)
				mu.Lock()
				if prev, ok := firstHash[p.name]; !ok {
					firstHash[p.name] = sum
				} else if prev != sum {
					inconsistent.Add(1)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	total := hits.Load() + coalesced.Load() + misses.Load() + partials.Load()
	fmt.Printf("rvload: %d requests (%d payloads) in %.3fs  (%.1f req/s, %d workers)\n",
		total+errors.Load(), len(payloads), wall.Seconds(), float64(total)/wall.Seconds(), *cFlag)
	fmt.Printf("cache:  %d hit, %d coalesced, %d partial, %d miss", hits.Load(), coalesced.Load(), partials.Load(), misses.Load())
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(hits.Load()+coalesced.Load()) / float64(total)
		fmt.Printf("  (%.1f%% warm)", 100*hitRate)
	}
	fmt.Println()
	printLatency := func(name string, h *obs.Histogram) {
		s := h.Summary()
		if s.Count == 0 {
			return
		}
		fmt.Printf("%s latency: p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms  (n=%d)\n",
			name, s.P50/1e6, s.P90/1e6, s.P99/1e6, float64(s.Max)/1e6, s.Count)
	}
	printLatency("cold", latCold)
	printLatency("warm", latWarm)
	if n := inconsistent.Load(); n > 0 {
		fmt.Printf("BYTE INCONSISTENCY: %d responses differed from the first response for the same payload\n", n)
	} else {
		fmt.Printf("byte-consistency: all responses identical per payload\n")
	}

	if *promOut != "" {
		// Scrape the way Prometheus would and require the body to parse
		// cleanly.
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			log.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
			log.Fatalf("prometheus scrape: Content-Type %q, want %q", ct, obs.PromContentType)
		}
		fams, err := obs.ParsePrometheus(bytes.NewReader(data))
		if err != nil {
			log.Fatalf("prometheus scrape does not parse: %v", err)
		}
		if err := os.WriteFile(*promOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote prometheus exposition to %s (%d metric families)\n", *promOut, len(fams))
	}

	fail := false
	if errors.Load() > 0 {
		log.Printf("%d request errors", errors.Load())
		fail = true
	}
	if inconsistent.Load() > 0 {
		log.Print("byte inconsistency detected")
		fail = true
	}
	if *minHitFlag >= 0 && hitRate < *minHitFlag {
		log.Printf("hit rate %.3f below gate %.3f", hitRate, *minHitFlag)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}
