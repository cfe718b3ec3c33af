package frontend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dandelion"
	"dandelion/internal/memctx"
	"dandelion/internal/wire"
)

// wireChunkSize mirrors the wire decoder's pooled-chunk granularity
// (256 KiB): payloads at and past it switch from carved pooled chunks
// to dedicated right-sized slabs, the seam these tests straddle.
const wireChunkSize = 256 << 10

// postBatchJSON runs one JSON batch and returns per-slot payloads and
// error strings.
func postBatchJSON(t *testing.T, url string, reqs []map[string][]dandelion.Item) (outs [][]byte, errs []string) {
	t.Helper()
	wireReqs := make([]wire.BatchRequest, len(reqs))
	for i, r := range reqs {
		inputs := map[string][]wire.Item{}
		for set, items := range r {
			for _, it := range items {
				inputs[set] = append(inputs[set], wire.Item{Name: it.Name, Data: it.Data})
			}
		}
		wireReqs[i] = wire.BatchRequest{Inputs: inputs}
	}
	buf, err := json.Marshal(wireReqs)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("JSON batch: %d %s", resp.StatusCode, b)
	}
	var results []wire.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		var payload []byte
		if its := res.Outputs["Result"]; len(its) > 0 {
			payload = its[0].Data
		}
		outs = append(outs, payload)
		errs = append(errs, res.Error)
	}
	return outs, errs
}

// postBatchBinary runs the same batch in the binary framing.
func postBatchBinary(t *testing.T, url string, reqs []map[string][]dandelion.Item) (outs [][]byte, errs []string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(encodeBatchBinary(t, reqs)))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary batch: %d %s", resp.StatusCode, b)
	}
	full, errStrs := decodeResultsBinary(t, resp.Body)
	for _, out := range full {
		var payload []byte
		if its := out["Result"]; len(its) > 0 {
			payload = its[0].Data
		}
		outs = append(outs, payload)
	}
	return outs, errStrs
}

// TestJSONBinaryEquivalenceAtChunkBoundary sends identical batches
// through the JSON and binary batch routes with payloads one byte
// under, exactly at, and one byte over the decoder's 256 KiB pooled
// chunk — the sizes where the binary ingest path switches between
// carved chunks and dedicated slabs — and requires byte-identical
// results from both framings.
func TestJSONBinaryEquivalenceAtChunkBoundary(t *testing.T) {
	_, h := newEchoServer(t, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	sizes := []int{wireChunkSize - 1, wireChunkSize, wireChunkSize + 1}
	reqs := make([]map[string][]dandelion.Item, len(sizes))
	for i, n := range sizes {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		// The last byte marks the end so truncation cannot pass.
		payload[n-1] = 0xEE
		reqs[i] = map[string][]dandelion.Item{"In": {{Name: fmt.Sprintf("p%d", i), Data: payload}}}
	}

	jsonOuts, jsonErrs := postBatchJSON(t, srv.URL+"/invoke-batch/E", reqs)
	binOuts, binErrs := postBatchBinary(t, srv.URL+"/invoke-batch/E", reqs)
	if len(jsonOuts) != len(sizes) || len(binOuts) != len(sizes) {
		t.Fatalf("result counts: json %d, binary %d, want %d", len(jsonOuts), len(binOuts), len(sizes))
	}
	for i, n := range sizes {
		if jsonErrs[i] != "" || binErrs[i] != "" {
			t.Fatalf("slot %d errors: json %q, binary %q", i, jsonErrs[i], binErrs[i])
		}
		if len(jsonOuts[i]) != n {
			t.Fatalf("slot %d: JSON echoed %d bytes, want %d", i, len(jsonOuts[i]), n)
		}
		if !bytes.Equal(jsonOuts[i], binOuts[i]) {
			t.Fatalf("slot %d (%d bytes): JSON and binary results diverge", i, n)
		}
		if !bytes.Equal(binOuts[i], reqs[i]["In"][0].Data) {
			t.Fatalf("slot %d (%d bytes): echoed payload corrupted", i, n)
		}
	}
}

// maxPayloadForBudget finds, empirically against the real decoder, the
// largest echo-request payload that decodes under frame budget b — so
// the boundary tests hold exactly even if the frame overhead (counts,
// name lengths) changes.
func maxPayloadForBudget(t *testing.T, b int) int {
	t.Helper()
	fits := func(n int) bool {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.EncodeRequest(map[string][]memctx.Item{"In": {{Name: "i", Data: make([]byte, n)}}}); err != nil {
			t.Fatal(err)
		}
		enc.EncodeEnd()
		enc.Release()
		dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
		defer dec.Release()
		dec.SetMaxFrameBytes(b)
		_, err := dec.DecodeRequest()
		return err == nil
	}
	lo, hi := 0, b // payload alone can never exceed the budget
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0 || fits(lo+1) {
		t.Fatalf("no budget threshold found under %d", b)
	}
	return lo
}

// TestFrameBudgetExactBoundary pins the operable frame budget at ±1
// byte: with MaxFrameBytes set, the largest in-budget record round
// trips, and one byte more is rejected with the distinct
// frame-too-large error — 413 when the oversized record heads the
// stream, an in-stream error frame when results were already flowing.
func TestFrameBudgetExactBoundary(t *testing.T) {
	const budget = 64 << 10
	_, h := newEchoServer(t, Config{MaxFrameBytes: budget})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	limit := maxPayloadForBudget(t, budget)

	// Exactly at the budget: served.
	outs, errs := postBatchBinary(t, srv.URL+"/invoke-batch/E", []map[string][]dandelion.Item{
		{"In": {{Name: "i", Data: make([]byte, limit)}}},
	})
	if len(outs) != 1 || errs[0] != "" || len(outs[0]) != limit {
		t.Fatalf("at-budget record: %d results, err %q", len(outs), errs)
	}

	// One byte over, heading the stream: 413 with the distinct error.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E",
		bytes.NewReader(encodeBatchBinary(t, []map[string][]dandelion.Item{
			{"In": {{Name: "i", Data: make([]byte, limit+1)}}},
		})))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget head record: %d %s, want 413", resp.StatusCode, b)
	}
	var e map[string]string
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e["error"], "frame budget") {
		t.Fatalf("over-budget 413 body: %q, want distinct frame-budget error", b)
	}

	// One byte over, mid-stream: the good record's result arrives, then
	// an error frame naming the budget, and no clean end-of-stream.
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E",
		bytes.NewReader(encodeBatchBinary(t, []map[string][]dandelion.Item{
			{"In": {{Name: "i", Data: []byte("ok")}}},
			{"In": {{Name: "i", Data: make([]byte, limit+1)}}},
		})))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("mid-stream over-budget: status %d, want committed 200", resp.StatusCode)
	}
	dec := wire.NewDecoder(resp.Body)
	defer dec.Release()
	out, msg, derr := dec.DecodeResult()
	if derr != nil || msg != "" || string(out["Result"][0].Data) != "ok" {
		t.Fatalf("first result: out=%v msg=%q err=%v", out, msg, derr)
	}
	_, msg, derr = dec.DecodeResult()
	if derr != nil || !strings.Contains(msg, "frame budget") {
		t.Fatalf("second slot: msg=%q err=%v, want frame-budget error frame", msg, derr)
	}
	if _, _, derr = dec.DecodeResult(); derr != io.EOF {
		t.Fatalf("stream after budget error: %v, want truncation (io.EOF, no FrameEnd)", derr)
	}
}

// TestMaxFrameBytesClampedToBody pins the flag interaction: a frame
// budget above the body cap is clamped down to it, since a record
// cannot out-declare the body it arrives in.
func TestMaxFrameBytesClampedToBody(t *testing.T) {
	const body = 32 << 10
	_, h := newEchoServer(t, Config{MaxBodyBytes: body, MaxFrameBytes: 1 << 20})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	// Send only the head of a frame that *declares* a 64 KiB payload —
	// past the clamped 32 KiB budget but within the configured
	// MaxFrameBytes. The declared-length check fires before any payload
	// is read, so the clamp (and only the clamp) yields the distinct
	// 413; an unclamped budget would read on into the truncation and
	// answer a generic 400.
	full := encodeBatchBinary(t, []map[string][]dandelion.Item{
		{"In": {{Name: "i", Data: make([]byte, 64<<10)}}},
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E", bytes.NewReader(full[:256]))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("record declaring past the clamped budget: %d %s, want 413", resp.StatusCode, b)
	}
	var e map[string]string
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e["error"], "frame budget") {
		t.Fatalf("clamp 413 body: %q, want distinct frame-budget error", b)
	}
}
