package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rvdyn/internal/obs"
)

// DefaultMaxUploadBytes bounds one request body (spec + binary) unless
// HandlerOptions overrides it.
const DefaultMaxUploadBytes = 64 << 20

// DefaultMaxMemoryBytes is the per-request in-memory multipart budget; parts
// beyond it spill to disk (and are removed when the request finishes).
const DefaultMaxMemoryBytes = 8 << 20

// HandlerOptions configures the HTTP surface.
type HandlerOptions struct {
	// MaxUploadBytes caps the request body; oversized uploads get 413.
	MaxUploadBytes int64
	// MaxMemoryBytes is how much of a multipart body is held in memory
	// before parts spill to temp files. Keeping it well below
	// MaxUploadBytes bounds per-request memory at the cost of disk spills
	// for large binaries; spilled files are deleted when the handler
	// returns, so temp-dir usage is bounded by the in-flight request count.
	MaxMemoryBytes int64
}

// NewHandler wires the service into an http.Handler:
//
//	POST /v1/instrument   multipart form: "spec" (JSON) + "binary" (ELF
//	                      file) or "source" (assembly text). Returns the
//	                      rewritten ELF (application/octet-stream) with
//	                      X-Rvdynd-Key and X-Rvdynd-Cache headers, or JSON
//	                      metadata (patches, counters, base64 ELF) with
//	                      ?meta=1.
//	GET  /healthz         liveness probe: uptime and inflight count
//	GET  /metrics         the obs registry in Prometheus text exposition
//	                      (version 0.0.4, obs.PromContentType) whatever
//	                      the query or Accept header
//
// Malformed input of any kind — bad multipart framing, invalid spec JSON,
// corrupt ELFs, unknown functions — yields a 4xx and leaves the cache
// untouched (failed computes are never inserted).
func NewHandler(s *Service, opts HandlerOptions) http.Handler {
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if opts.MaxMemoryBytes <= 0 {
		opts.MaxMemoryBytes = DefaultMaxMemoryBytes
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/instrument", func(w http.ResponseWriter, r *http.Request) {
		handleInstrument(s, opts, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok uptime=%s inflight=%d\n", s.Uptime().Round(1e6), s.inflight.Load())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		s.reg.WritePrometheus(w)
	})
	return statusMetrics(s.reg, mux)
}

// statusMetrics counts responses by status class and bytes moved.
func statusMetrics(reg *obs.Registry, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w, reg: reg}
		next.ServeHTTP(cw, r)
		if !cw.wroteHeader {
			cw.WriteHeader(http.StatusOK)
		}
		reg.Counter("server.http.bytes_out").Add(uint64(cw.bytes))
	})
}

// countingWriter counts the status class as the header goes out, so the
// count is in place before the client can read the response.
type countingWriter struct {
	http.ResponseWriter
	reg         *obs.Registry
	wroteHeader bool
	bytes       int
}

func (w *countingWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		w.reg.Counter(fmt.Sprintf("server.http.%dxx", code/100)).Inc()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func handleInstrument(s *Service, opts HandlerOptions, w http.ResponseWriter, r *http.Request) {
	req, status, err := readInstrumentRequest(opts, w, r)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}

	resp, err := s.Instrument(req)
	if err != nil {
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	w.Header().Set("X-Rvdynd-Key", resp.Key)
	w.Header().Set("X-Rvdynd-Cache", resp.CacheState)
	if r.URL.Query().Get("meta") == "1" {
		type patchJSON struct {
			Func string `json:"func"`
			Kind string `json:"kind"`
			From uint64 `json:"from"`
			To   uint64 `json:"to"`
		}
		patches := make([]patchJSON, 0, len(resp.Patches))
		for _, p := range resp.Patches {
			patches = append(patches, patchJSON{p.Func, p.Kind.String(), p.From, p.To})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Key      string            `json:"key"`
			Cache    string            `json:"cache"`
			ELFSize  int               `json:"elf_size"`
			Patches  []patchJSON       `json:"patches"`
			Counters map[string]uint64 `json:"counters"`
			ELF      string            `json:"elf_base64"`
		}{resp.Key, resp.CacheState, len(resp.ELF), patches, resp.Counters,
			base64.StdEncoding.EncodeToString(resp.ELF)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.ELF)))
	w.Write(resp.ELF)
}

// readInstrumentRequest decodes an /instrument multipart body. Parts beyond
// the memory budget spill to temp files; they are removed before it returns,
// so none outlives parsing and the cleanup is done before any response is
// sent. On failure it returns the HTTP status to answer with.
func readInstrumentRequest(opts HandlerOptions, w http.ResponseWriter, r *http.Request) (Request, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, opts.MaxUploadBytes)
	// The body cap is enforced by MaxBytesReader; the parse budget only
	// decides what stays in memory. Passing the full upload cap here would
	// let every in-flight request pin MaxUploadBytes of heap.
	if err := r.ParseMultipartForm(opts.MaxMemoryBytes); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		return Request{}, status, fmt.Errorf("parse multipart body: %v", err)
	}
	defer r.MultipartForm.RemoveAll()

	var spec Spec
	if specText := r.FormValue("spec"); specText != "" {
		dec := json.NewDecoder(strings.NewReader(specText))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return Request{}, http.StatusBadRequest, fmt.Errorf("decode spec: %v", err)
		}
	}
	req := Request{Spec: spec, Source: r.FormValue("source")}
	if file, _, err := r.FormFile("binary"); err == nil {
		data, rerr := io.ReadAll(file)
		file.Close()
		if rerr != nil {
			return Request{}, http.StatusBadRequest, fmt.Errorf("read binary part: %v", rerr)
		}
		req.Binary = data
	}
	return req, http.StatusOK, nil
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("rvdynd: "+format, args...), status)
}
