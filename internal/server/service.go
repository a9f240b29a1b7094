package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rvdyn/internal/asm"
	"rvdyn/internal/codegen"
	"rvdyn/internal/core"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/patch"
	"rvdyn/internal/snippet"
)

// ToolchainVersion is folded into every cache key: artifacts produced by a
// different toolchain revision must never satisfy this server's lookups.
// Bump it whenever the rewriter's output bytes can change.
const ToolchainVersion = "rvdynd/2"

// Spec is the client-supplied instrumentation request: which functions to
// instrument with entry counters, at which points, with which register
// allocation. The zero values default to entry points and dead-register
// allocation, mirroring rvdyn rewrite.
type Spec struct {
	// Name is a client-side label; it never enters the cache key because it
	// cannot change the output bytes.
	Name string `json:"name,omitempty"`
	// Funcs lists the functions to instrument with one counter each, in
	// order (order is semantic: it fixes counter-variable addresses).
	Funcs []string `json:"funcs,omitempty"`
	// Points is "entry" (default), "exits", or "blocks".
	Points string `json:"points,omitempty"`
	// Mode is "dead" (default) or "spill".
	Mode string `json:"mode,omitempty"`
}

// maxSpecFuncs bounds the per-request function list so a hostile spec
// cannot make the server allocate without bound.
const maxSpecFuncs = 1024

// canonicalize validates the spec and fills defaults. The result is the
// canonical form whose JSON encoding enters the cache key, so two requests
// that differ only in spelling (missing defaults, surrounding whitespace)
// share cache entries.
func (sp Spec) canonicalize() (Spec, error) {
	switch sp.Points {
	case "":
		sp.Points = "entry"
	case "entry", "exits", "blocks":
	default:
		return sp, &RequestError{fmt.Errorf("unknown points mode %q", sp.Points)}
	}
	switch sp.Mode {
	case "":
		sp.Mode = "dead"
	case "dead", "spill":
	default:
		return sp, &RequestError{fmt.Errorf("unknown codegen mode %q", sp.Mode)}
	}
	if len(sp.Funcs) > maxSpecFuncs {
		return sp, &RequestError{fmt.Errorf("spec lists %d functions, limit %d", len(sp.Funcs), maxSpecFuncs)}
	}
	seen := map[string]bool{}
	funcs := make([]string, 0, len(sp.Funcs))
	for _, f := range sp.Funcs {
		f = strings.TrimSpace(f)
		if f == "" {
			return sp, &RequestError{fmt.Errorf("spec has an empty function name")}
		}
		if seen[f] {
			return sp, &RequestError{fmt.Errorf("spec lists function %q twice", f)}
		}
		seen[f] = true
		funcs = append(funcs, f)
	}
	sp.Funcs = funcs
	return sp, nil
}

// canonicalJSON is the key-relevant projection of a canonicalized spec.
func (sp Spec) canonicalJSON() []byte {
	b, _ := json.Marshal(struct {
		Funcs  []string `json:"funcs"`
		Points string   `json:"points"`
		Mode   string   `json:"mode"`
	}{sp.Funcs, sp.Points, sp.Mode})
	return b
}

func (sp Spec) codegenMode() codegen.Mode {
	if sp.Mode == "spill" {
		return codegen.ModeSpillAlways
	}
	return codegen.ModeDeadRegister
}

// RequestError marks a failure caused by the request itself — a corrupt
// ELF, an unknown function, an invalid spec — as opposed to a server-side
// fault. The HTTP layer maps it to a 4xx status.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// Options configures a Service.
type Options struct {
	// Jobs bounds the number of concurrently executing requests; inside a
	// request the rewriter's own parallelism shrinks as the pool fills
	// (output bytes are identical either way). <= 0 means GOMAXPROCS.
	Jobs int
	// CacheBytes bounds the artifact cache (default 256 MiB).
	CacheBytes uint64
	// Metrics, when non-nil, receives cache and request metrics.
	Metrics *obs.Registry
}

// Service is the transport-independent server core: hash, look up, compute
// what is missing, respond. One Service is shared by all HTTP handlers.
type Service struct {
	reg      *obs.Registry
	cache    *Cache
	workers  int
	sem      chan struct{}
	inflight atomic.Int64
	start    time.Time

	requests  *obs.Counter
	reqErrors *obs.Counter
	latCold   *obs.Histogram
	latWarm   *obs.Histogram
	inflightG *obs.Gauge
}

// NewService builds a Service.
func NewService(opts Options) *Service {
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 256 << 20
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = defaultWorkers()
	}
	reg := opts.Metrics
	// Latency buckets: 1µs .. ~17s in powers of two, in nanoseconds.
	bounds := obs.ExpBuckets(1000, 2, 25)
	return &Service{
		reg:       reg,
		cache:     NewCache(opts.CacheBytes, reg),
		workers:   workers,
		sem:       make(chan struct{}, workers),
		start:     time.Now(),
		requests:  reg.Counter("server.requests"),
		reqErrors: reg.Counter("server.request_errors"),
		latCold:   reg.Histogram("server.latency_ns.cold", bounds),
		latWarm:   reg.Histogram("server.latency_ns.warm", bounds),
		inflightG: reg.Gauge("server.inflight"),
	}
}

// Cache exposes the artifact cache (tests force partial-hit states through
// it).
func (s *Service) Cache() *Cache { return s.cache }

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// Request is one instrumentation submission: exactly one of Binary (an ELF
// image) or Source (assembly text, assembled server-side) plus the spec.
type Request struct {
	Binary []byte
	Source string
	Spec   Spec
}

// Response is the served result. ELF is shared with the cache — callers
// must treat it as immutable.
type Response struct {
	// Key is the content address of the served artifact.
	Key string
	// CacheState is "hit", "coalesced", "partial:plan", "partial:analysis",
	// or "miss" — the deepest artifact level that had to be recomputed.
	CacheState string
	ELF        []byte
	Patches    []patch.PatchRecord
	Counters   map[string]uint64
}

// reqState records which levels a cold/partial compute found warm, for the
// CacheState verdict.
type reqState struct {
	analysisHit bool
	planHit     bool
}

// Instrument serves one request, from cache when possible.
func (s *Service) Instrument(req Request) (*Response, error) {
	s.requests.Inc()
	spec, err := req.Spec.canonicalize()
	if err != nil {
		s.reqErrors.Inc()
		return nil, err
	}
	var input []byte
	var kind string
	switch {
	case len(req.Binary) > 0 && req.Source == "":
		input, kind = req.Binary, "binary"
	case len(req.Binary) == 0 && req.Source != "":
		input, kind = []byte(req.Source), "source"
	default:
		s.reqErrors.Inc()
		return nil, &RequestError{fmt.Errorf("request needs exactly one of binary or source")}
	}
	inputHash := hashParts([]byte(kind), input)
	specJSON := spec.canonicalJSON()

	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.inflight.Add(1)
	s.inflightG.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.inflightG.Add(-1)
	}()
	startT := time.Now()

	var st reqState
	elfKey := artifactKey("elf", inputHash, specJSON)
	art, outcome, err := s.cache.GetOrCompute(elfKey, "elf", func() (Artifact, error) {
		return s.buildELF(kind, input, spec, inputHash, specJSON, &st)
	})
	elapsed := uint64(time.Since(startT).Nanoseconds())
	if err != nil {
		s.reqErrors.Inc()
		return nil, err
	}
	state := "miss"
	switch {
	case outcome == Hit:
		state = "hit"
	case outcome == Coalesced:
		state = "coalesced"
	case st.planHit:
		state = "partial:plan"
	case st.analysisHit:
		state = "partial:analysis"
	}
	if outcome == Miss && !st.planHit && !st.analysisHit {
		s.latCold.Observe(elapsed)
	} else {
		s.latWarm.Observe(elapsed)
	}
	ea := art.(*elfArtifact)
	return &Response{
		Key: elfKey, CacheState: state,
		ELF: ea.elf, Patches: ea.patches, Counters: ea.counters,
	}, nil
}

// buildELF is the cold half of Instrument: recompute the rewritten ELF,
// reusing whatever deeper artifacts are still resident. Every error on
// this path derives from the submitted input (the server has no other
// inputs), so all of them map to RequestError.
func (s *Service) buildELF(kind string, input []byte, spec Spec, inputHash, specJSON []byte, st *reqState) (Artifact, error) {
	// Analysis: parsed ELF + symtab + CFG, shared by every spec over the
	// same input bytes.
	inner := s.innerJobs()
	aArt, aOut, err := s.cache.GetOrCompute(artifactKey("analysis", inputHash), "analysis", func() (Artifact, error) {
		file, err := s.loadFile(kind, input)
		if err != nil {
			return nil, err
		}
		bin, err := core.FromFileJobs(file, inner)
		if err != nil {
			return nil, &RequestError{fmt.Errorf("analyze: %w", err)}
		}
		size := uint64(len(input)) + uint64(bin.CFG.Stats.Instructions)*64 + uint64(bin.CFG.Stats.Blocks)*128
		return &analysisArtifact{bin: bin, size: size}, nil
	})
	if err != nil {
		return nil, err
	}
	bin := aArt.(*analysisArtifact).bin
	st.analysisHit = aOut != Miss

	// Liveness: per-function dataflow results, keyed by the input alone —
	// a rewrite with a different spec over the same binary reuses them.
	lvArt, _, err := s.cache.GetOrCompute(artifactKey("liveness", inputHash), "liveness", func() (Artifact, error) {
		return &livenessArtifact{
			lc:   patch.NewLivenessCache(),
			size: uint64(bin.CFG.Stats.Functions)*512 + 256,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	rw := patch.NewRewriter(bin.Symtab, bin.CFG, spec.codegenMode())
	rw.Jobs = inner
	rw.SetLivenessCache(lvArt.(*livenessArtifact).lc)
	counters := map[string]uint64{}
	for _, name := range spec.Funcs {
		fn, ok := bin.CFG.FuncByName(name)
		if !ok {
			return nil, &RequestError{fmt.Errorf("no function %q in submitted binary", name)}
		}
		v := rw.NewVar("ctr_"+name, 8)
		counters[name] = v.Addr
		var pts []snippet.Point
		switch spec.Points {
		case "entry":
			pts = []snippet.Point{snippet.FuncEntry(fn)}
		case "exits":
			pts = snippet.FuncExits(fn)
		case "blocks":
			pts = snippet.BlockEntries(fn)
		}
		for _, pt := range pts {
			if err := rw.InsertSnippet(pt, snippet.Increment(v)); err != nil {
				return nil, &RequestError{err}
			}
		}
	}

	// Plan: the base-independent relocation plans for this input+spec. A
	// cached PlanSet is replayed without mutation, so sharing across
	// concurrent requests is safe.
	pArt, pOut, err := s.cache.GetOrCompute(artifactKey("plan", inputHash, specJSON), "plan", func() (Artifact, error) {
		ps, err := rw.Plan()
		if err != nil {
			return nil, &RequestError{fmt.Errorf("plan: %w", err)}
		}
		return &planArtifact{ps: ps}, nil
	})
	if err != nil {
		return nil, err
	}
	st.planHit = pOut != Miss

	out, err := rw.RewriteWithPlans(pArt.(*planArtifact).ps)
	if err != nil {
		return nil, &RequestError{fmt.Errorf("rewrite: %w", err)}
	}
	raw, err := out.Write()
	if err != nil {
		return nil, &RequestError{fmt.Errorf("serialize: %w", err)}
	}
	return &elfArtifact{elf: raw, patches: rw.Patches, counters: counters}, nil
}

func (s *Service) loadFile(kind string, input []byte) (*elfrv.File, error) {
	if kind == "source" {
		f, err := asm.Assemble(string(input), asm.Options{})
		if err != nil {
			return nil, &RequestError{fmt.Errorf("assemble: %w", err)}
		}
		return f, nil
	}
	f, err := elfrv.Read(input)
	if err != nil {
		return nil, &RequestError{fmt.Errorf("read ELF: %w", err)}
	}
	return f, nil
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// innerJobs splits the pool between concurrent requests: an idle server
// gives one request the whole pool; a saturated one collapses each request
// to the serial path (output bytes are identical at any width).
func (s *Service) innerJobs() int {
	n := int(s.inflight.Load())
	if n < 1 {
		n = 1
	}
	inner := s.workers / n
	if inner < 1 {
		inner = 1
	}
	return inner
}

// hashParts hashes length-prefixed parts so no two part sequences collide.
func hashParts(parts ...[]byte) []byte {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return h.Sum(nil)
}

// artifactKey derives the content address of one artifact level.
func artifactKey(level string, parts ...[]byte) string {
	all := append([][]byte{[]byte(ToolchainVersion), []byte(level)}, parts...)
	return level + ":" + hex.EncodeToString(hashParts(all...)[:16])
}

// Artifact level payloads.

type analysisArtifact struct {
	bin  *core.Binary
	size uint64
}

func (a *analysisArtifact) CacheBytes() uint64 { return a.size }

type livenessArtifact struct {
	lc   *patch.LivenessCache
	size uint64
}

func (a *livenessArtifact) CacheBytes() uint64 { return a.size }

type planArtifact struct{ ps *patch.PlanSet }

func (a *planArtifact) CacheBytes() uint64 { return a.ps.Footprint() + 512 }

type elfArtifact struct {
	elf      []byte
	patches  []patch.PatchRecord
	counters map[string]uint64
}

func (a *elfArtifact) CacheBytes() uint64 {
	return uint64(len(a.elf)) + uint64(len(a.patches))*64 + uint64(len(a.counters))*64 + 256
}
