package workloads_test

import (
	"bytes"
	"context"
	"fmt"
	"image/png"
	"math"
	"strconv"
	"strings"
	"testing"

	"dandelion"
	"dandelion/internal/memctx"
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

// A 22-byte QOI image — a header declaring 65536×65536 pixels and the
// end marker — must be answered with an error, not a 16 GiB allocation
// (a fatal out-of-memory no recover catches), and the node must go on
// serving.
func TestImagePipelineRejectsPixelBomb(t *testing.T) {
	p := newPlatform(t, "image")
	bomb := []byte{'q', 'o', 'i', 'f', 0, 1, 0, 0, 0, 1, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	_, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadImagePipeline, Inputs: map[string][]dandelion.Item{
		"Images": {{Name: "bomb.qoi", Data: bomb}},
	}})
	if err == nil {
		t.Fatal("65536×65536 image with no pixel data accepted")
	}
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadImagePipeline, Inputs: map[string][]dandelion.Item{
		"Images": workloads.MakeImages(1, 32, 32),
	}})
	if err != nil {
		t.Fatalf("node stopped serving after the bomb: %v", err)
	}
	if got := len(out["PNGs"]); got != 1 {
		t.Fatalf("PNGs = %d items, want 1", got)
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

// A Sizes item is a length read from the request, so StoreGen must
// refuse it before it becomes an allocation: a 20-byte request must not
// make the node ask the runtime for 16 GiB, a fatal out-of-memory no
// recover catches. Trailing garbage is refused too, not read as a
// prefix number.
func TestStorageFetchRejectsBadSizes(t *testing.T) {
	p := newPlatform(t, "storage")
	fetch := func(size string) (map[string][]dandelion.Item, error) {
		return p.Invoke(context.Background(), dandelion.Request{Composition: workloads.WorkloadStorageFetch, Inputs: map[string][]dandelion.Item{
			"Sizes": {{Name: "blob", Data: []byte(size)}},
		}})
	}
	for _, size := range []string{"12abc", " 12", "12 ", "0x10", "-1", strconv.Itoa(workloads.MaxBlobBytes + 1), "17179869184"} {
		// Stop at the first accepted size: on a build without the bound,
		// the next one asks for its whole allocation.
		if !t.Run(size, func(t *testing.T) {
			out, err := fetch(size)
			if err == nil || !strings.Contains(err.Error(), "blob size") {
				t.Fatalf("size %q: err = %v, %d blobs; want a blob size error", size, err, len(out["Blobs"]))
			}
		}) {
			break
		}
	}
	out, err := fetch("12")
	if err != nil || len(out["Blobs"]) != 1 || len(out["Blobs"][0].Data) != 12 {
		t.Fatalf("fetch after rejections: err = %v, out = %v", err, out)
	}
}

// storeSum returns the StoreSum kernel, run without a platform.
func storeSum(tb testing.TB) func(digests ...[]byte) ([]byte, error) {
	tb.Helper()
	fns := functions{}
	if _, err := workloads.Register(fns, "storage"); err != nil {
		tb.Fatal(err)
	}
	return func(digests ...[]byte) ([]byte, error) {
		in := memctx.Set{Name: "Digests"}
		for i, d := range digests {
			in.Items = append(in.Items, memctx.Item{Name: fmt.Sprintf("d%d", i), Data: d})
		}
		out, err := fns["StoreSum"]([]memctx.Set{in})
		if err != nil {
			return nil, err
		}
		return out[0].Items[0].Data, nil
	}
}

// StoreSum reads exactly the digest grammar StoreScan writes — four
// space-separated fields, canonical non-negative base-10 counts and a
// 16-digit lowercase hex hash — and refuses anything else instead of
// summing a prefix of it. Totals that would overflow are refused too,
// since they would render as a digest that does not parse.
func TestStorageScanRejectsBadDigests(t *testing.T) {
	sum := storeSum(t)
	const good = "blobs=1 bytes=2 records=3 hash=00000000000000ff"
	if got, err := sum([]byte(good)); err != nil || string(got) != good {
		t.Fatalf("StoreSum(%q) = %q, %v; want it back unchanged", good, got, err)
	}
	big := fmt.Sprintf("blobs=1 bytes=%d records=0 hash=0000000000000000", math.MaxInt)
	for _, bad := range [][]string{
		{"blobs=1 bytes=2 records=3 hash=ffzz"},
		{"blobs=1 bytes=2 records=3 hash=0x1"},
		{"blobs=1 bytes=2 records=3 hash=00000000000000ff trailing"},
		{"blobs=-5 bytes=-2 records=0 hash=0000000000000000"},
		{"blobs=1  bytes=2 records=3 hash=00000000000000ff"},
		{"blobs=1 bytes=2 records=3 hash=00000000000000FF"},
		{"blobs=1 bytes=2 records=3 hash=0000000000000ff"},
		{"blobs=1 bytes=2 records=3 hash=000000000000000ff"},
		{"blobs=+1 bytes=2 records=3 hash=00000000000000ff"},
		{"blobs=01 bytes=2 records=3 hash=00000000000000ff"},
		{"blobs=1 bytes=2 records= hash=00000000000000ff"},
		{"blobs=1 bytes=1_0 records=3 hash=00000000000000ff"},
		{"bytes=2 blobs=1 records=3 hash=00000000000000ff"},
		{"blobs=1 bytes=2 records=3"},
		{" " + good},
		{good + " "},
		{good + "\n"},
		{"blobs=1\tbytes=2 records=3 hash=00000000000000ff"},
		{""},
		{"blobs=1 bytes=99999999999999999999 records=3 hash=00000000000000ff"},
		{good, big},
	} {
		digests := make([][]byte, len(bad))
		for i, d := range bad {
			digests[i] = []byte(d)
		}
		if got, err := sum(digests...); err == nil {
			t.Errorf("StoreSum(%q) = %q, want an error", bad, got)
		}
	}
}

// FuzzStoreSumDigest: StoreSum of one digest is that digest, so
// whatever StoreSum accepts must render back to the same bytes.
func FuzzStoreSumDigest(f *testing.F) {
	f.Add([]byte("blobs=0 bytes=0 records=0 hash=0000000000000000"))
	f.Add([]byte("blobs=1 bytes=262144 records=4096 hash=9c4e0f3b2a1d8e07"))
	f.Add([]byte(fmt.Sprintf("blobs=%d bytes=%d records=1 hash=ffffffffffffffff", math.MaxInt, math.MaxInt)))
	f.Add([]byte("blobs=1 bytes=2 records=3 hash=ffzz"))
	f.Add([]byte("blobs=01 bytes=+2 records=-3 hash=00000000000000FF "))
	sum := storeSum(f)
	f.Fuzz(func(t *testing.T, digest []byte) {
		got, err := sum(digest)
		if err == nil && !bytes.Equal(got, digest) {
			t.Fatalf("StoreSum accepted %q and rendered it as %q", digest, got)
		}
	})
}
