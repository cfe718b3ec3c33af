package workloads_test

import (
	"bytes"
	"context"
	"fmt"
	"image/png"
	"strings"
	"testing"

	"dandelion"
	"dandelion/internal/ssb"
	"dandelion/internal/workloads"
)

func newPlatform(t *testing.T, suites string) *dandelion.Platform {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Shutdown() })
	got, err := workloads.Register(p, suites)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(suites, ",")
	if suites == "all" {
		want = workloads.Suites()
	}
	if len(got) != len(want) {
		t.Fatalf("registered suites = %v, want %v", got, want)
	}
	return p
}

func TestRegisterRejectsUnknownSuite(t *testing.T) {
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	if _, err := workloads.Register(p, "ssb,nope"); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

func TestRegisterDeduplicates(t *testing.T) {
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	got, err := workloads.Register(p, "image, image")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "image" {
		t.Fatalf("registered = %v, want [image]", got)
	}
}

func TestSSBQueryServedMatchesReference(t *testing.T) {
	p := newPlatform(t, "ssb")
	const rows, chunks = 8192, 4
	in, err := workloads.MakeSSBChunks(rows, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ssb.Queries() {
		out, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadSSBQuery, Inputs: map[string][]dandelion.Item{
			"Query":  {workloads.MakeSSBQuery(q)},
			"Chunks": in,
		}})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := ssb.DecodeGroupSum(out["Result"][0].Data)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := workloads.SSBExpect(q, rows)
		if err != nil {
			t.Fatal(err)
		}
		gr, wr := got.Rows(), want.Rows()
		if len(gr) != len(wr) {
			t.Fatalf("%s: %d groups, want %d", q, len(gr), len(wr))
		}
		for i := range gr {
			if gr[i] != wr[i] {
				t.Fatalf("%s: group %d = %+v, want %+v", q, i, gr[i], wr[i])
			}
		}
	}
}

func TestSSBQueryRejectsUnknownQuery(t *testing.T) {
	p := newPlatform(t, "ssb")
	in, err := workloads.MakeSSBChunks(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadSSBQuery, Inputs: map[string][]dandelion.Item{
		"Query":  {{Name: "query", Data: []byte("Q9.9")}},
		"Chunks": in,
	}})
	if err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestImagePipelineServed(t *testing.T) {
	p := newPlatform(t, "image")
	in := workloads.MakeImages(3, 96, 64)
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadImagePipeline, Inputs: map[string][]dandelion.Item{
		"Images": in,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out["PNGs"]); got != 3 {
		t.Fatalf("PNGs = %d items, want 3", got)
	}
	for _, it := range out["PNGs"] {
		img, err := png.Decode(bytes.NewReader(it.Data))
		if err != nil {
			t.Fatalf("%s: not a PNG: %v", it.Name, err)
		}
		if img.Bounds().Dy() != 64 {
			t.Fatalf("%s: height %d, want 64", it.Name, img.Bounds().Dy())
		}
	}
}

func TestStorageScanServed(t *testing.T) {
	p := newPlatform(t, "storage")
	const nBlobs, blobSize = 4, 64 << 10
	in := workloads.MakeScanBlobs(nBlobs, blobSize)
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadStorageScan, Inputs: map[string][]dandelion.Item{
		"Blobs": in,
	}})
	if err != nil {
		t.Fatal(err)
	}
	summary := string(out["Result"][0].Data)
	wantPrefix := fmt.Sprintf("blobs=%d bytes=%d ", nBlobs, nBlobs*blobSize)
	if !strings.HasPrefix(summary, wantPrefix) {
		t.Fatalf("summary %q, want prefix %q", summary, wantPrefix)
	}
	// Deterministic inputs make the digest reproducible across runs.
	out2, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadStorageScan, Inputs: map[string][]dandelion.Item{
		"Blobs": workloads.MakeScanBlobs(nBlobs, blobSize),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out2["Result"][0].Data); got != summary {
		t.Fatalf("digest not deterministic: %q vs %q", got, summary)
	}
}

func TestStorageFetchServed(t *testing.T) {
	p := newPlatform(t, "storage")
	const nBlobs, blobSize = 3, 256 << 10
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadStorageFetch, Inputs: map[string][]dandelion.Item{
		"Sizes": workloads.MakeFetchSizes(nBlobs, blobSize),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out["Blobs"]); got != nBlobs {
		t.Fatalf("Blobs = %d items, want %d", got, nBlobs)
	}
	for _, it := range out["Blobs"] {
		if len(it.Data) != blobSize {
			t.Fatalf("%s: %d bytes, want %d", it.Name, len(it.Data), blobSize)
		}
		// Generated server-side from the item name: must match the
		// client-side generator byte for byte.
		if !bytes.Equal(it.Data, workloads.MakeBlob(blobSize, workloads.SeedFromName(it.Name))) {
			t.Fatalf("%s: blob bytes diverge from deterministic generator", it.Name)
		}
	}
}
