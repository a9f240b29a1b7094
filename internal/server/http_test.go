package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

func newTestServer(t *testing.T, opts HandlerOptions) (*Service, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	svc := NewService(Options{Jobs: 2, Metrics: reg})
	ts := httptest.NewServer(NewHandler(svc, opts))
	t.Cleanup(ts.Close)
	return svc, ts, reg
}

func postMultipart(t *testing.T, url string, fields map[string]string, files map[string][]byte) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for k, v := range fields {
		mw.WriteField(k, v)
	}
	for k, v := range files {
		fw, _ := mw.CreateFormFile(k, k+".bin")
		fw.Write(v)
	}
	mw.Close()
	resp, err := http.Post(url+"/v1/instrument", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPInstrumentEndToEnd(t *testing.T) {
	_, ts, reg := newTestServer(t, HandlerOptions{})
	p := workload.Programs()[0]
	spec := `{"name":"e2e","funcs":["` + strings.Join(p.Funcs, `","`) + `"]}`

	resp := postMultipart(t, ts.URL, map[string]string{"spec": spec, "source": p.Source}, nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rvdynd-Cache"); got != "miss" {
		t.Errorf("first request cache state %q, want miss", got)
	}
	key := resp.Header.Get("X-Rvdynd-Key")
	if key == "" {
		t.Error("missing X-Rvdynd-Key")
	}
	if _, err := elfrv.Read(body); err != nil {
		t.Fatalf("response is not a loadable ELF: %v", err)
	}

	// Warm resubmission: hit, same key, same bytes.
	resp2 := postMultipart(t, ts.URL, map[string]string{"spec": spec, "source": p.Source}, nil)
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Rvdynd-Cache"); got != "hit" {
		t.Errorf("second request cache state %q, want hit", got)
	}
	if resp2.Header.Get("X-Rvdynd-Key") != key {
		t.Error("warm request keyed differently")
	}
	if !bytes.Equal(body, body2) {
		t.Error("warm response bytes differ from cold response")
	}

	// HTTP status metrics observed both requests.
	if got := reg.Counter("server.http.2xx").Load(); got != 2 {
		t.Errorf("server.http.2xx = %d, want 2", got)
	}
}

func TestHTTPInstrumentMeta(t *testing.T) {
	_, ts, _ := newTestServer(t, HandlerOptions{})
	p := workload.Programs()[0]
	spec := `{"funcs":["` + strings.Join(p.Funcs, `","`) + `"]}`

	// Raw response first, for the byte comparison.
	raw := postMultipart(t, ts.URL, map[string]string{"spec": spec, "source": p.Source}, nil)
	rawELF, _ := io.ReadAll(raw.Body)
	raw.Body.Close()

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("spec", spec)
	mw.WriteField("source", p.Source)
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/instrument?meta=1", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta struct {
		Key     string `json:"key"`
		Cache   string `json:"cache"`
		ELFSize int    `json:"elf_size"`
		Patches []struct {
			Func string `json:"func"`
			Kind string `json:"kind"`
		} `json:"patches"`
		Counters map[string]uint64 `json:"counters"`
		ELF      string            `json:"elf_base64"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Cache != "hit" {
		t.Errorf("meta request cache state %q, want hit", meta.Cache)
	}
	decoded, err := base64.StdEncoding.DecodeString(meta.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, rawELF) || meta.ELFSize != len(rawELF) {
		t.Error("meta elf_base64 differs from the raw octet-stream response")
	}
	if len(meta.Patches) == 0 {
		t.Error("meta response has no patches")
	}
	if len(meta.Counters) != len(p.Funcs) {
		t.Errorf("meta lists %d counters, want %d", len(meta.Counters), len(p.Funcs))
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, HandlerOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "ok ") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	p := workload.Programs()[0]
	postMultipart(t, ts.URL, map[string]string{
		"spec":   `{"funcs":["` + p.Funcs[0] + `"]}`,
		"source": p.Source,
	}, nil).Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"server_requests", "cache_misses", "server_latency_ns_cold"} {
		if !strings.Contains(string(body), "# TYPE "+want+" ") {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestHTTPMetricsPrometheus pins that /metrics has one representation: bare,
// with a scraper's Accept header or with a stale ?format= query it returns
// the Prometheus text exposition, which must parse and carry the server's
// counters.
func TestHTTPMetricsPrometheus(t *testing.T) {
	_, ts, _ := newTestServer(t, HandlerOptions{})
	p := workload.Programs()[0]
	postMultipart(t, ts.URL, map[string]string{
		"spec":   `{"funcs":["` + p.Funcs[0] + `"]}`,
		"source": p.Source,
	}, nil).Body.Close()

	get := func(url, accept string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	for _, tc := range []struct{ url, accept string }{
		{ts.URL + "/metrics", ""},
		{ts.URL + "/metrics", "text/plain;version=0.0.4"},
		{ts.URL + "/metrics?format=text", ""},
	} {
		resp, body := get(tc.url, tc.accept)
		if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
			t.Errorf("GET %s (Accept %q): Content-Type %q, want %q", tc.url, tc.accept, got, obs.PromContentType)
		}
		fams, err := obs.ParsePrometheus(strings.NewReader(body))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, body)
		}
		byName := map[string]string{}
		for _, f := range fams {
			byName[f.Name] = f.Type
		}
		if byName["server_requests"] != "counter" {
			t.Errorf("server_requests family = %q, want counter (families %v)", byName["server_requests"], byName)
		}
		if byName["server_latency_ns_cold"] != "histogram" {
			t.Errorf("server_latency_ns_cold family = %q, want histogram", byName["server_latency_ns_cold"])
		}
	}
}

// TestHTTPMultipartTempFileChurn pins the multipart spill discipline: with a
// one-byte in-memory budget every uploaded binary spills to a temp file, and
// after a burst of distinct-keyed requests (each a full compute, churning the
// cache) the temp directory holds no more multipart-* files than before —
// RemoveAll reclaims each request's spill when the handler returns.
func TestHTTPMultipartTempFileChurn(t *testing.T) {
	_, ts, _ := newTestServer(t, HandlerOptions{MaxMemoryBytes: 1})
	p := workload.Programs()[0]
	f, err := asm.Assemble(p.Source, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.Write()
	if err != nil {
		t.Fatal(err)
	}

	spillCount := func() int {
		matches, err := filepath.Glob(filepath.Join(os.TempDir(), "multipart-*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(matches)
	}
	before := spillCount()

	for i := 0; i < 16; i++ {
		// A distinct spec name per request keys every request differently,
		// so each one runs the full compute path while the binary part sits
		// spilled on disk.
		spec := fmt.Sprintf(`{"name":"churn-%d","funcs":["%s"]}`, i, p.Funcs[0])
		resp := postMultipart(t, ts.URL, map[string]string{"spec": spec},
			map[string][]byte{"binary": raw})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	if after := spillCount(); after > before {
		t.Errorf("multipart temp files grew from %d to %d — spilled parts are leaking", before, after)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts, reg := newTestServer(t, HandlerOptions{MaxUploadBytes: 32 << 10})
	p := workload.Programs()[0]
	goodSpec := `{"funcs":["` + p.Funcs[0] + `"]}`

	post := func(fields map[string]string, files map[string][]byte) int {
		resp := postMultipart(t, ts.URL, fields, files)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post(map[string]string{"spec": `{not json`, "source": p.Source}, nil); got != 400 {
		t.Errorf("bad spec JSON: %d, want 400", got)
	}
	if got := post(map[string]string{"spec": `{"unknown_field":1}`, "source": p.Source}, nil); got != 400 {
		t.Errorf("unknown spec field: %d, want 400", got)
	}
	if got := post(map[string]string{"spec": `{"funcs":["nope"]}`, "source": p.Source}, nil); got != 422 {
		t.Errorf("unknown function: %d, want 422", got)
	}
	if got := post(map[string]string{"spec": goodSpec}, nil); got != 422 {
		t.Errorf("no input: %d, want 422", got)
	}
	if got := post(map[string]string{"spec": goodSpec, "source": p.Source},
		map[string][]byte{"binary": {1, 2, 3}}); got != 422 {
		t.Errorf("both inputs: %d, want 422", got)
	}
	if got := post(map[string]string{"spec": goodSpec},
		map[string][]byte{"binary": []byte("garbage, not an ELF")}); got != 422 {
		t.Errorf("corrupt ELF: %d, want 422", got)
	}
	if got := post(map[string]string{"spec": goodSpec},
		map[string][]byte{"binary": make([]byte, 64<<10)}); got != 413 {
		t.Errorf("oversized upload: %d, want 413", got)
	}

	// Non-multipart body.
	resp, err := http.Post(ts.URL+"/v1/instrument", "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("non-multipart body: %d, want 400", resp.StatusCode)
	}

	// Method and path routing.
	resp, err = http.Get(ts.URL + "/v1/instrument")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/instrument: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", resp.StatusCode)
	}

	if got := reg.Counter("server.http.4xx").Load(); got < 9 {
		t.Errorf("server.http.4xx = %d, want >= 9", got)
	}
	if got := reg.Counter("server.http.5xx").Load(); got != 0 {
		t.Errorf("server.http.5xx = %d, want 0", got)
	}
}
