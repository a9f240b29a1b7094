package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/server"
	"rvdyn/internal/workload"
)

// serve-mix is the rvdynd request path: two clients, each on its own
// keep-alive loopback connection, post instrumentation requests to an
// in-process service. Each client's seeded schedule sends, in every block
// of ten requests in shuffled order, eight for a warm set primed in set-up
// (cache hits), one fresh random program (a full miss that writes the
// cache and, once it is full, evicts), and after it that program again with
// a second spec (the analysis is cached, the plan is not). Hits set the
// median and misses the tail. Fixing the mix per block keeps it, and the
// cost of the warm-up, the same from seed to seed.
const (
	serveJobs       = 2
	serveCacheBytes = 32 << 20
	freshFuncs      = 40
	// opHeader carries a traced operation's ID to the server-side span.
	opHeader = "X-Bench-Op"
)

type payload struct {
	warm   int   // index in the warm set, or -1 for a fresh program
	seed   int64 // fresh program seed
	spec   server.Spec
	source string
	binary []byte
	body   []byte // the encoded multipart form
	ctype  string
}

type serveInst struct {
	env        *runEnv
	reg        *obs.Registry
	ts         *httptest.Server
	clients    []*serveClient
	warm       []*payload
	want       [][]byte // the primed response to each warm payload
	freshFuncs []string

	mu   sync.Mutex
	cold []coldResponse // fresh responses, checked after the window

	evictions0, coalesced0 uint64

	growth, snippetInsts float64
}

type serveClient struct {
	id    int
	http  *http.Client
	rng   *rand.Rand
	block []int // the rest of the current block of ten: see next
	fresh int   // fresh programs sent
	last  int64 // the latest fresh program
}

type coldResponse struct {
	seed   int64
	points string
	sum    [sha256.Size]byte
}

func setupServeMix(env *runEnv) (instance, error) {
	m := &serveInst{env: env, reg: obs.NewRegistry()}
	for i := 0; i < freshFuncs; i++ {
		m.freshFuncs = append(m.freshFuncs, fmt.Sprintf("fz%d", i))
	}
	for _, p := range workload.Programs() {
		f, err := env.assemble(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		bin, err := f.Write()
		if err != nil {
			return nil, err
		}
		spec := server.Spec{Funcs: p.Funcs}
		for _, pl := range []*payload{{source: p.Source}, {binary: bin}} {
			pl.warm, pl.spec = len(m.warm), spec
			if err := pl.encode(); err != nil {
				return nil, err
			}
			m.warm = append(m.warm, pl)
		}
	}

	svc := server.NewService(server.Options{Jobs: serveJobs, CacheBytes: serveCacheBytes, Metrics: m.reg})
	var h http.Handler = server.NewHandler(svc, server.HandlerOptions{})
	if env.spans != nil {
		h = &timedHandler{next: h, log: env.spans}
	}
	m.ts = httptest.NewServer(h)
	for c := 0; c < 2; c++ {
		m.clients = append(m.clients, &serveClient{
			id: c,
			http: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			rng: rand.New(rand.NewSource(env.seed<<8 | int64(c))),
		})
	}
	m.want = make([][]byte, len(m.warm))
	for i, p := range m.warm {
		body, _, err := m.post(m.clients[0], p, nil)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("priming warm payload %d: %w", i, err)
		}
		m.want[i] = body
	}
	return m, nil
}

func (p *payload) encode() error {
	spec, err := json.Marshal(p.spec)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("spec", string(spec)); err != nil {
		return err
	}
	if p.source != "" {
		err = mw.WriteField("source", p.source)
	} else {
		var fw io.Writer
		if fw, err = mw.CreateFormFile("binary", "input.elf"); err == nil {
			_, err = fw.Write(p.binary)
		}
	}
	if err != nil {
		return err
	}
	if err := mw.Close(); err != nil {
		return err
	}
	p.body, p.ctype = buf.Bytes(), mw.FormDataContentType()
	return nil
}

// freshPayload is fresh program seed with the given points spec.
func (m *serveInst) freshPayload(seed int64, points string) (*payload, error) {
	p := &payload{
		warm: -1, seed: seed,
		spec:   server.Spec{Funcs: m.freshFuncs, Points: points},
		source: workload.RandomProgram(seed, freshFuncs),
	}
	return p, p.encode()
}

// next draws the client's next request from its schedule: a block is a
// shuffle of 0..9, where 0..7 stand for warm requests, 8 for a fresh
// program and 9 for the second spec, moved after the 8.
func (m *serveInst) next(cl *serveClient) (*payload, error) {
	if len(cl.block) == 0 {
		cl.block = cl.rng.Perm(10)
		i8, i9 := indexOf(cl.block, 8), indexOf(cl.block, 9)
		if i9 < i8 {
			cl.block[i8], cl.block[i9] = 9, 8
		}
	}
	v := cl.block[0]
	cl.block = cl.block[1:]
	switch v {
	case 8:
		cl.last = m.env.seed<<32 | int64(cl.id)<<24 | int64(cl.fresh)
		cl.fresh++
		return m.freshPayload(cl.last, "entry")
	case 9:
		return m.freshPayload(cl.last, "blocks")
	}
	return m.warm[cl.rng.Intn(len(m.warm))], nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// post sends one request and reads the whole response; o (which may be nil)
// times the round trip.
func (m *serveInst) post(cl *serveClient, p *payload, o *opRec) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, m.ts.URL+"/v1/instrument", bytes.NewReader(p.body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", p.ctype)
	if o.traced() {
		req.Header.Set(opHeader, strconv.FormatInt(o.id, 10))
	}
	o.begin()
	s := o.span("net.client")
	resp, err := cl.http.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.end()
	o.done()
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Rvdynd-Cache"), nil
}

func (m *serveInst) op(c int, o *opRec) error {
	p, err := m.next(m.clients[c])
	if err != nil {
		return err
	}
	body, state, err := m.post(m.clients[c], p, o)
	if err != nil {
		return err
	}
	switch {
	case state == "hit":
		o.class = "hit"
	case strings.HasPrefix(state, "partial:"):
		o.class = "partial"
	default: // "miss", or "coalesced" onto another request's miss
		o.class = "miss"
	}
	if p.warm >= 0 {
		if !bytes.Equal(body, m.want[p.warm]) {
			return fmt.Errorf("response to warm payload %d differs from its first response", p.warm)
		}
		return nil
	}
	m.mu.Lock()
	m.cold = append(m.cold, coldResponse{p.seed, p.spec.Points, sha256.Sum256(body)})
	m.mu.Unlock()
	return nil
}

// reference checks every primed warm response against an offline rewrite
// of the same input and spec, and marks the start of the window's cache
// counters.
func (m *serveInst) reference() error {
	var inBytes, outBytes, points int
	var insts float64
	for i, p := range m.warm {
		var f *elfrv.File
		var err error
		if p.source != "" {
			f, err = m.env.assemble(p.source)
		} else {
			f, err = elfrv.Read(p.binary)
			inBytes += len(p.binary)
			outBytes += len(m.want[i])
		}
		if err != nil {
			return err
		}
		r, err := rewrite(nil, f, rewriteSpec{funcs: p.spec.Funcs, points: "entry", workers: serveJobs})
		if err != nil {
			return fmt.Errorf("warm payload %d: %w", i, err)
		}
		if !bytes.Equal(r.elf, m.want[i]) {
			return fmt.Errorf("warm payload %d: served ELF differs from the offline rewrite", i)
		}
		mean, err := r.snippetInsts()
		if err != nil {
			return err
		}
		insts += mean * float64(len(r.points))
		points += len(r.points)
	}
	m.growth = 100 * (float64(outBytes)/float64(inBytes) - 1)
	m.snippetInsts = insts / float64(points)
	// The window starts next: its cache counters count from here.
	m.evictions0 = m.reg.Counter("cache.evictions").Load()
	m.coalesced0 = m.reg.Counter("cache.singleflight.coalesced").Load()
	return nil
}

// finish compares every fresh response with an offline rewrite of the same
// program and spec, on as many workers as the service has.
func (m *serveInst) finish() (int, error) {
	m.mu.Lock()
	bySeed := map[int64][]coldResponse{}
	var seeds []int64
	for _, c := range m.cold {
		if bySeed[c.seed] == nil {
			seeds = append(seeds, c.seed)
		}
		bySeed[c.seed] = append(bySeed[c.seed], c)
	}
	m.mu.Unlock()

	var next, failed atomic.Int64
	errs := make([]error, serveJobs)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
				n, err := m.checkCold(seeds[i], bySeed[seeds[i]])
				if err != nil {
					errs[w] = err
					return
				}
				failed.Add(int64(n))
			}
		}(w)
	}
	wg.Wait()
	return int(failed.Load()), errors.Join(errs...)
}

// checkCold rewrites fresh program seed offline once per response and
// returns how many responses differ.
func (m *serveInst) checkCold(seed int64, rs []coldResponse) (int, error) {
	f, err := m.env.assemble(workload.RandomProgram(seed, freshFuncs))
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, c := range rs {
		r, err := rewrite(nil, f, rewriteSpec{funcs: m.freshFuncs, points: c.points, workers: 1})
		if err == nil && sha256.Sum256(r.elf) != c.sum {
			err = fmt.Errorf("served ELF differs from the offline rewrite")
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: serve-mix: program %d, %s points: %v\n", seed, c.points, err)
		}
	}
	return failed, nil
}

func (m *serveInst) layerMetrics(out map[string]float64, w *window) error {
	var n int
	var total time.Duration
	for _, cs := range w.classes {
		n += cs.n
		total += cs.time
	}
	for _, class := range []string{"hit", "partial", "miss"} {
		cs := w.classes[class]
		if cs == nil {
			cs = &classStat{}
		}
		out["server."+class+"_share"] = 100 * ratio(float64(cs.n), float64(n))
		out["server."+class+"_time_pct"] = 100 * ratio(float64(cs.time), float64(total))
	}
	out["server.cache.evictions"] = float64(m.reg.Counter("cache.evictions").Load()-m.evictions0) / float64(w.ops)
	out["server.cache.coalesced"] = float64(m.reg.Counter("cache.singleflight.coalesced").Load() - m.coalesced0)
	out["server.cache.bytes"] = float64(m.reg.Gauge("cache.bytes").Load()) / (1 << 20)
	out["growth_pct"] = m.growth
	out["codegen.snippet_insts"] = m.snippetInsts
	return nil
}

func (m *serveInst) close() {
	for _, cl := range m.clients {
		cl.http.CloseIdleConnections()
	}
	m.ts.Close()
}

// timedHandler records the server side of a traced request as a
// server.handler span inside the client's net.client span.
type timedHandler struct {
	next http.Handler
	log  *spanLog
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.log.record(id, 0, "server.handler", "net.client", start, time.Now())
}
