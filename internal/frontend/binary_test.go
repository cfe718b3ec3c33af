package frontend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/wire"
)

// newEchoServer builds a platform with a Go echo composition E(In) =>
// Result and a frontend over it with the given config.
func newEchoServer(t *testing.T, cfg Config) (*dandelion.Platform, http.Handler) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if err := p.RegisterFunction(dandelion.ComputeFunc{Name: "Echo", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	return p, NewWithConfig(p, cfg)
}

func encodeBatchBinary(t *testing.T, reqs []map[string][]dandelion.Item) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	for _, r := range reqs {
		if err := enc.EncodeRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.EncodeEnd(); err != nil {
		t.Fatal(err)
	}
	enc.Release()
	return buf.Bytes()
}

func decodeResultsBinary(t *testing.T, body io.Reader) (outs []map[string][]dandelion.Item, errs []string) {
	t.Helper()
	dec := wire.NewDecoder(body)
	defer dec.Release()
	for {
		out, msg, err := dec.DecodeResult()
		if err == io.EOF {
			return outs, errs
		}
		if err != nil {
			t.Fatalf("decoding result stream: %v", err)
		}
		outs = append(outs, out)
		errs = append(errs, msg)
	}
}

// TestInvokeBatchBinaryEndToEnd drives the batch route in the binary
// framing over a real HTTP server: results come back framed, in
// request order, with per-request errors carried as error frames.
func TestInvokeBatchBinaryEndToEnd(t *testing.T) {
	_, h := newEchoServer(t, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	reqs := []map[string][]dandelion.Item{
		{"In": {{Name: "i", Data: []byte("bin-0")}}},
		{"Wrong": {{Name: "i", Data: []byte("bin-1")}}}, // missing input set -> error slot
		{"In": {{Name: "i", Data: bytes.Repeat([]byte("x"), 8192)}}},
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E",
		bytes.NewReader(encodeBatchBinary(t, reqs)))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary invoke-batch: %d %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("response Content-Type = %q", ct)
	}
	outs, errs := decodeResultsBinary(t, resp.Body)
	if len(outs) != 3 {
		t.Fatalf("got %d results, want 3", len(outs))
	}
	if errs[0] != "" || errs[2] != "" {
		t.Fatalf("unexpected errors: %q %q", errs[0], errs[2])
	}
	if errs[1] == "" {
		t.Fatal("request 1 (wrong input set) should carry an error frame")
	}
	if got := string(outs[0]["Result"][0].Data); got != "bin-0" {
		t.Fatalf("result 0 echoed %q", got)
	}
	if got := outs[2]["Result"][0].Data; len(got) != 8192 || got[0] != 'x' {
		t.Fatalf("result 2 payload corrupted (len %d)", len(got))
	}
}

// TestInvokeBatchBinaryEmptyAndMalformed pins the edge contract: an
// empty frame stream answers an empty framed response, and a stream
// malformed from the first record still gets a clean 400.
func TestInvokeBatchBinaryEmptyAndMalformed(t *testing.T) {
	_, h := newEchoServer(t, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	post := func(body []byte) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(encodeBatchBinary(t, nil))
	outs, _ := decodeResultsBinary(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(outs) != 0 {
		t.Fatalf("empty stream: %d, %d results", resp.StatusCode, len(outs))
	}

	resp = post([]byte{0x00, 0x01, 0x02})
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed stream: %d %s", resp.StatusCode, b)
	}
	var e map[string]string
	if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
		t.Fatalf("malformed stream error body: %q", b)
	}
}

// flushRecorder is a ResponseWriter that signals its first Flush, so a
// test can prove results were flushed before the request body finished
// uploading.
type flushRecorder struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	header  http.Header
	flushed chan struct{}
	once    sync.Once
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{header: http.Header{}, flushed: make(chan struct{})}
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}
func (f *flushRecorder) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.Write(b)
}
func (f *flushRecorder) Flush() { f.once.Do(func() { close(f.flushed) }) }

// TestInvokeBatchBinaryStreamsBeforeEOF is the streaming acceptance
// test: a slow-uploading multi-sub-batch request must observe its
// first sub-batch's results flushed before the client finishes writing
// the body. The client goroutine refuses to send the second half until
// the first flush arrives — if the handler buffered the whole body
// before executing, the exchange would deadlock (caught by timeout).
func TestInvokeBatchBinaryStreamsBeforeEOF(t *testing.T) {
	// MaxBatch 2 caps the admission window, so the handler must execute
	// after at most two decoded records — it cannot wait for more.
	p, h := newEchoServer(t, Config{})
	p.SetAdmissionClamp(0, 2)

	pr, pw := io.Pipe()
	rec := newFlushRecorder()
	req := httptest.NewRequest(http.MethodPost, "/invoke-batch/E", pr)
	req.Header.Set("Content-Type", wire.ContentTypeBinary)

	mkReq := func(i int) map[string][]dandelion.Item {
		return map[string][]dandelion.Item{"In": {{Name: "i", Data: []byte(fmt.Sprintf("s-%d", i))}}}
	}
	writerDone := make(chan error, 1)
	go func() {
		enc := wire.NewEncoder(pw)
		defer enc.Release()
		for i := 0; i < 2; i++ {
			if err := enc.EncodeRequest(mkReq(i)); err != nil {
				writerDone <- err
				return
			}
		}
		// Refuse to upload the rest until the first results flush.
		select {
		case <-rec.flushed:
		case <-time.After(10 * time.Second):
			writerDone <- fmt.Errorf("no flush before body EOF: handler is buffering the whole body")
			pw.Close()
			return
		}
		for i := 2; i < 4; i++ {
			if err := enc.EncodeRequest(mkReq(i)); err != nil {
				writerDone <- err
				return
			}
		}
		enc.EncodeEnd()
		writerDone <- pw.Close()
	}()

	handlerDone := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(handlerDone)
	}()

	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not finish after body EOF")
	}

	outs, errs := decodeResultsBinary(t, &rec.buf)
	if len(outs) != 4 {
		t.Fatalf("got %d results, want 4", len(outs))
	}
	for i := range outs {
		if errs[i] != "" {
			t.Fatalf("result %d error: %s", i, errs[i])
		}
		if got := string(outs[i]["Result"][0].Data); got != fmt.Sprintf("s-%d", i) {
			t.Fatalf("result %d echoed %q", i, got)
		}
	}
}

// TestBodyLimits413 pins the MaxBodyBytes satellite: oversized bodies
// on invocation and registration routes answer 413 with a JSON error,
// and within-limit requests are unaffected.
func TestBodyLimits413(t *testing.T) {
	_, h := newEchoServer(t, Config{MaxBodyBytes: 1024})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	big := bytes.Repeat([]byte("a"), 4096)
	for _, path := range []string{
		"/invoke/E?input=In",
		"/register/composition",
		"/register/function/F2",
	} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(big))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with oversized body: %d %s", path, resp.StatusCode, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Fatalf("POST %s 413 body not a JSON error: %q", path, b)
		}
	}

	// JSON batch bodies over the cap answer 413 too.
	var reqs []wire.BatchRequest
	for i := 0; i < 8; i++ {
		reqs = append(reqs, wire.BatchRequest{Inputs: map[string][]wire.Item{
			"In": {{Name: "i", Data: bytes.Repeat([]byte("b"), 512)}},
		}})
	}
	buf, _ := json.Marshal(reqs)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d %s", resp.StatusCode, b)
	}

	// The whole JSON body counts, not just its first value: a batch
	// that ends inside the cap but is followed past it is 413 too.
	code, body := post(t, srv.URL+"/invoke-batch/E", nil, append([]byte("[]"), bytes.Repeat([]byte(" "), 2048)...))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch with trailing bytes past the cap: %d %s", code, body)
	}

	// A within-limit request still works.
	code, body = post(t, srv.URL+"/invoke/E?input=In", nil, []byte("small"))
	if code != 200 || body != "small" {
		t.Fatalf("within-limit invoke: %d %q", code, body)
	}
}

// TestStatsContentLength pins the buffered-stats satellite: /stats
// carries a Content-Length matching its body, proof the snapshot was
// fully encoded before the status was committed.
func TestStatsContentLength(t *testing.T) {
	_, srv := newServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	cl := resp.Header.Get("Content-Length")
	if cl == "" {
		t.Fatal("/stats response has no Content-Length")
	}
	if n, _ := strconv.Atoi(cl); n != len(body) {
		t.Fatalf("Content-Length %s != body length %d", cl, len(body))
	}
	var stats dandelion.Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body not valid JSON: %v", err)
	}
}
