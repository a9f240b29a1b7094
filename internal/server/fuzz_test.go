package server

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// fuzzEnv is one shared server under fuzz: the service, its HTTP handler,
// and a known-good request whose reference output lets every iteration
// probe for cache poisoning.
type fuzzEnv struct {
	svc     *Service
	handler http.Handler
	goodReq Request
	ref     []byte
}

var (
	fuzzOnce sync.Once
	fuzz     fuzzEnv
)

const fuzzMaxUpload = 256 << 10

func fuzzSetup(t testing.TB) *fuzzEnv {
	fuzzOnce.Do(func() {
		svc := NewService(Options{Jobs: 2, CacheBytes: 1 << 20, Metrics: obs.NewRegistry()})
		good := workload.Programs()[0]
		req := Request{Source: good.Source, Spec: Spec{Funcs: good.Funcs}}
		resp, err := svc.Instrument(req)
		if err != nil {
			t.Fatalf("good request failed at setup: %v", err)
		}
		fuzz = fuzzEnv{
			svc:     svc,
			handler: NewHandler(svc, HandlerOptions{MaxUploadBytes: fuzzMaxUpload}),
			goodReq: req,
			ref:     resp.ELF,
		}
	})
	return &fuzz
}

const fuzzBoundary = "rvdyndfuzzboundary"

// multipartBody builds a well-framed body with the fixed fuzz boundary.
func multipartBody(t testing.TB, build func(*multipart.Writer)) []byte {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(fuzzBoundary); err != nil {
		t.Fatal(err)
	}
	build(mw)
	mw.Close()
	return buf.Bytes()
}

// FuzzServeRequest throws adversarial request bodies at the HTTP decoder
// and spec parser: truncated multipart framing, oversized uploads, corrupt
// ELFs, junk specs. The invariants, checked on every input:
//
//   - the handler never panics (a panic fails the fuzz run outright);
//   - the status is 200 or 4xx — malformed input is the client's fault,
//     never a 5xx;
//   - the cache is never poisoned: a known-good request still serves bytes
//     identical to its pre-fuzz reference after every adversarial input.
func FuzzServeRequest(f *testing.F) {
	env := fuzzSetup(f)
	ctype := "multipart/form-data; boundary=" + fuzzBoundary

	good := workload.Programs()[0]
	goodSpec := `{"name":"fuzz","funcs":["` + good.Funcs[0] + `"]}`
	srcBody := multipartBody(f, func(mw *multipart.Writer) {
		mw.WriteField("spec", goodSpec)
		mw.WriteField("source", good.Source)
	})
	elfFile, err := asm.Assemble(good.Source, asm.Options{})
	if err != nil {
		f.Fatal(err)
	}
	elfRaw, err := elfFile.Write()
	if err != nil {
		f.Fatal(err)
	}
	binBody := func(elf []byte) []byte {
		return multipartBody(f, func(mw *multipart.Writer) {
			mw.WriteField("spec", goodSpec)
			fw, _ := mw.CreateFormFile("binary", "a.elf")
			fw.Write(elf)
		})
	}

	// Seed corpus: the valid shapes plus every malformation class the issue
	// names.
	f.Add(srcBody, ctype)
	f.Add(binBody(elfRaw), ctype)
	// Truncated multipart framing at several depths.
	for _, frac := range []int{4, 2, 1} {
		body := srcBody[:len(srcBody)*3/(frac*4)]
		f.Add(body, ctype)
	}
	// Corrupt ELFs: truncated image, flipped magic, mangled section header
	// offset, zeroed header.
	f.Add(binBody(elfRaw[:len(elfRaw)/2]), ctype)
	mutated := bytes.Clone(elfRaw)
	mutated[1] ^= 0xff
	f.Add(binBody(mutated), ctype)
	mutated = bytes.Clone(elfRaw)
	for i := 0x28; i < 0x30 && i < len(mutated); i++ {
		mutated[i] = 0xff
	}
	f.Add(binBody(mutated), ctype)
	f.Add(binBody(make([]byte, 64)), ctype)
	// Function symbols whose st_size the file cannot back.
	for _, size := range []uint64{1 << 62, 1 << 33} {
		huge := *elfFile
		huge.Symbols = slices.Clone(elfFile.Symbols)
		for i := range huge.Symbols {
			if huge.Symbols[i].Type == elfrv.STTFunc {
				huge.Symbols[i].Size = size
			}
		}
		raw, err := huge.Write()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(binBody(raw), ctype)
	}
	// Spec malformations: junk JSON, unknown field, unknown function,
	// duplicate function, bad modes.
	for _, spec := range []string{
		`{`, `{"funcs":"notalist"}`, `{"bogus":1}`,
		`{"funcs":["no_such_fn"]}`, `{"funcs":["f","f"]}`,
		`{"funcs":["f"],"points":"sideways"}`, `{"funcs":["f"],"mode":"yolo"}`,
	} {
		spec := spec
		f.Add(multipartBody(f, func(mw *multipart.Writer) {
			mw.WriteField("spec", spec)
			mw.WriteField("source", good.Source)
		}), ctype)
	}
	// Both source and binary, and neither.
	f.Add(multipartBody(f, func(mw *multipart.Writer) {
		mw.WriteField("spec", goodSpec)
		mw.WriteField("source", good.Source)
		fw, _ := mw.CreateFormFile("binary", "a.elf")
		fw.Write(elfRaw)
	}), ctype)
	f.Add(multipartBody(f, func(mw *multipart.Writer) {
		mw.WriteField("spec", goodSpec)
	}), ctype)
	// Oversized upload (over the 256 KiB handler cap).
	f.Add(binBody(make([]byte, fuzzMaxUpload+1024)), ctype)
	// Non-multipart bodies and a junk content type.
	f.Add([]byte("not multipart at all"), ctype)
	f.Add([]byte{}, ctype)
	f.Add(srcBody, "application/x-tar")
	f.Add(srcBody, "multipart/form-data; boundary=")

	f.Fuzz(func(t *testing.T, body []byte, contentType string) {
		req := httptest.NewRequest("POST", "/v1/instrument", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		env.handler.ServeHTTP(rec, req)

		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("status %d for adversarial input (want 200 or 4xx): %s",
				rec.Code, rec.Body.String())
		}

		// Poison probe: the known-good request must still serve reference
		// bytes. (Its artifacts may have been evicted by fuzz inserts — a
		// recompute must converge to the same bytes.)
		resp, err := env.svc.Instrument(env.goodReq)
		if err != nil {
			t.Fatalf("good request broke after adversarial input: %v", err)
		}
		if !bytes.Equal(resp.ELF, env.ref) {
			t.Fatalf("cache poisoned: good request served %d bytes != reference %d bytes (state %s)",
				len(resp.ELF), len(env.ref), resp.CacheState)
		}
	})
}
