package workloads_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dandelion"
	"dandelion/internal/frontend"
	"dandelion/internal/wire"
	"dandelion/internal/workloads"
)

// fetchServer serves the storage suite behind a frontend and returns a
// function that posts one binary StorageFetch batch of a single request
// asking for the named blobs, each size bytes, and copies the reply
// body to dst. A non-empty key goes out as the Idempotency-Key header.
func fetchServer(t *testing.T) (*dandelion.Platform, func(dst io.Writer, key string, size int, names ...string)) {
	t.Helper()
	p := newPlatform(t, "storage")
	srv := httptest.NewServer(frontend.New(p))
	t.Cleanup(srv.Close)
	return p, func(dst io.Writer, key string, size int, names ...string) {
		t.Helper()
		sizes := make([]dandelion.Item, len(names))
		for i, name := range names {
			sizes[i] = dandelion.Item{Name: name, Data: []byte(fmt.Sprint(size))}
		}
		var body bytes.Buffer
		enc := wire.NewEncoder(&body)
		enc.EncodeRequest(map[string][]dandelion.Item{"Sizes": sizes})
		enc.EncodeEnd()
		enc.Release()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/"+workloads.WorkloadStorageFetch, &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		if key != "" {
			req.Header.Set(frontend.IdempotencyKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("StorageFetch = %d %s", resp.StatusCode, b)
		}
		if _, err := io.Copy(dst, resp.Body); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorageFetchKeyedResendSurvivesLeaseChurn: on the binary batch
// route StoreGen's blobs live in pooled buffers the request's lease
// owns, and they return to the pool once the reply is written. The
// dedup table packs a copy of a keyed reply, so a re-sent key repeats
// the first reply byte for byte even after other fetches have taken
// those buffers from the pool and written other blobs into them.
func TestStorageFetchKeyedResendSurvivesLeaseChurn(t *testing.T) {
	const size = 256 << 10
	p, fetch := fetchServer(t)
	names := []string{"blob000", "blob001", "blob002", "blob003"}
	var first, again bytes.Buffer
	fetch(&first, "fetch-once", size, names...)

	dec := wire.NewDecoder(bytes.NewReader(first.Bytes()))
	outs, errMsg, err := dec.DecodeResult()
	if err != nil || errMsg != "" || len(outs["Blobs"]) != len(names) {
		t.Fatalf("first reply: %d blobs, %q, %v", len(outs["Blobs"]), errMsg, err)
	}
	for _, it := range outs["Blobs"] {
		if !bytes.Equal(it.Data, workloads.MakeBlob(size, workloads.SeedFromName(it.Name))) {
			t.Fatalf("%s: served bytes diverge from MakeBlob", it.Name)
		}
	}
	dec.Release()

	for i := range 8 {
		fetch(io.Discard, "", size, fmt.Sprintf("churn%d-a", i), fmt.Sprintf("churn%d-b", i),
			fmt.Sprintf("churn%d-c", i), fmt.Sprintf("churn%d-d", i))
	}
	fetch(&again, "fetch-once", size, names...)
	if !bytes.Equal(again.Bytes(), first.Bytes()) {
		t.Fatal("re-sent keyed StorageFetch reply differs from the first")
	}
	if st := p.Stats(); st.DedupHits != 1 {
		t.Fatalf("dedup hits = %d, want 1 (the re-send must be answered from the table)", st.DedupHits)
	}
}

// TestStorageFetchSteadyStateAllocs guards the lease: a steady stream
// of 4 × 256 KiB binary StorageFetch requests through the frontend
// recycles its response memory, so a request allocates well under one
// blob. Generating each blob afresh cost ~1.15 MB per request.
func TestStorageFetchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations blur the count")
	}
	const size, requests = 256 << 10, 200
	_, fetch := fetchServer(t)
	names := []string{"blob000", "blob001", "blob002", "blob003"}
	for range 20 {
		fetch(io.Discard, "", size, names...)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range requests {
		fetch(io.Discard, "", size, names...)
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d B allocated per 4 × 256 KiB StorageFetch", perReq)
	if perReq >= 64<<10 {
		t.Fatalf("a StorageFetch request allocates %d B, want < 64 KiB", perReq)
	}
}
