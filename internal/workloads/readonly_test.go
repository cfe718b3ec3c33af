package workloads_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"dandelion"
	"dandelion/internal/journal"
	"dandelion/internal/qoiimg"
	"dandelion/internal/services"
	"dandelion/internal/ssb"
	"dandelion/internal/workloads"
)

// guardCase is one composition run by the read-only-inputs guard:
// its inputs and a check of one request's outputs against the
// reference answer.
type guardCase struct {
	comp   string
	inputs map[string][]dandelion.Item
	check  func(out map[string][]dandelion.Item) error
}

// TestServedCompositionsLeaveInputsIntact guards the data contract on
// core.GoFunc and core.CommFunc: inputs are read-only; outputs may
// alias inputs until the request's Borrow is released. Every served
// composition, and the HTTP and Storage communication functions, runs
// over input buffers shared by every request of the route: concurrent
// Invoke calls, one InvokeBatch, and one InvokeBatch whose requests
// carry a Borrow region. Afterwards the inputs' digest must be unchanged
// and every output must match its reference answer. Under -race a
// function writing to a shared input is also reported as a race.
func TestServedCompositionsLeaveInputsIntact(t *testing.T) {
	store := services.NewObjectStore()
	objects := map[string][]byte{"a": []byte("alpha object"), "b": workloads.MakeBlob(4096, 7)}
	for key, data := range objects {
		store.Put("bkt", key, data)
	}
	storeSrv, err := services.StartObjectStore(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { storeSrv.Close() })

	p, err := dandelion.New(dandelion.Options{ComputeEngines: 2, StorageURL: storeSrv.URL()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	if _, err := workloads.Register(p, "all"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition StorageGet(Ops) => Results {
    Storage(Ops = all Ops) => (Results = Results);
}
composition HTTPGet(Reqs) => Resps {
    HTTP(Request = each Reqs) => (Resps = Response);
}`); err != nil {
		t.Fatal(err)
	}

	for _, c := range guardCases(t, storeSrv.URL(), objects) {
		c := c
		t.Run(c.comp, func(t *testing.T) {
			digest := journal.DigestSets(c.inputs)
			const n = 3
			reqs := make([]dandelion.Request, n)
			for i := range reqs {
				reqs[i] = dandelion.Request{Composition: c.comp, Inputs: c.inputs}
			}
			check := func(route string, out map[string][]dandelion.Item, err error) {
				t.Helper()
				if err == nil {
					err = c.check(out)
				}
				if err != nil {
					t.Errorf("%s: %v", route, err)
				}
				if got := journal.DigestSets(c.inputs); got != digest {
					t.Fatalf("%s: inputs changed (digest %016x, want %016x)", route, got, digest)
				}
			}

			outs := make([]map[string][]dandelion.Item, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range reqs {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i], errs[i] = p.Invoke(context.Background(), reqs[i])
				}()
			}
			wg.Wait()
			for i := range reqs {
				check("Invoke", outs[i], errs[i])
			}

			for _, res := range p.InvokeBatch(context.Background(), reqs) {
				check("InvokeBatch", res.Outputs, res.Err)
			}

			recycled := 0
			region := dandelion.NewRegion(func() { recycled++ })
			for i := range reqs {
				reqs[i].Borrow = region
			}
			for _, res := range p.InvokeBatch(context.Background(), reqs) {
				check("InvokeBatch+Borrow", res.Outputs, res.Err)
			}
			region.Release()
			if recycled != 1 {
				t.Fatalf("borrowed region released %d times, want 1", recycled)
			}
		})
	}
}

// guardCases builds the inputs and reference answers of every
// composition the guard runs.
func guardCases(t *testing.T, storeURL string, objects map[string][]byte) []guardCase {
	const ssbRows = 4096
	chunks, err := workloads.MakeSSBChunks(ssbRows, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSSB, err := workloads.SSBExpect(ssb.Q11, ssbRows)
	if err != nil {
		t.Fatal(err)
	}
	images := workloads.MakeImages(3, 24, 16)
	wantPNG := make(map[string][]byte, len(images))
	for _, it := range images {
		png, err := qoiimg.ToPNG(bytes.Clone(it.Data))
		if err != nil {
			t.Fatal(err)
		}
		wantPNG[it.Name+".png"] = png
	}
	blobs := workloads.MakeScanBlobs(3, 4096)
	wantScan := scanSummary(blobs)
	keys := []string{"a", "b"}
	var ops, reqs []dandelion.Item
	for _, key := range keys {
		ops = append(ops, dandelion.Item{Name: key, Data: dandelion.StorageOp("GET", "bkt", key, nil)})
		reqs = append(reqs, dandelion.Item{Name: key, Data: dandelion.HTTPRequest("GET", storeURL+"/bkt/"+key, nil, nil)})
	}

	return []guardCase{
		{workloads.WorkloadSSBQuery, map[string][]dandelion.Item{"Query": {workloads.MakeSSBQuery(ssb.Q11)}, "Chunks": chunks},
			func(out map[string][]dandelion.Item) error {
				got, err := ssb.DecodeGroupSum(out["Result"][0].Data)
				if err != nil {
					return err
				}
				gr, wr := got.Rows(), wantSSB.Rows()
				if len(gr) != len(wr) {
					return fmt.Errorf("%d groups, want %d", len(gr), len(wr))
				}
				for i := range gr {
					if gr[i] != wr[i] {
						return fmt.Errorf("group %d = %+v, want %+v", i, gr[i], wr[i])
					}
				}
				return nil
			}},
		{workloads.WorkloadImagePipeline, map[string][]dandelion.Item{"Images": images},
			func(out map[string][]dandelion.Item) error {
				if len(out["PNGs"]) != len(wantPNG) {
					return fmt.Errorf("%d PNGs, want %d", len(out["PNGs"]), len(wantPNG))
				}
				for _, it := range out["PNGs"] {
					if !bytes.Equal(it.Data, wantPNG[it.Name]) {
						return fmt.Errorf("%s differs from the reference transcode", it.Name)
					}
				}
				return nil
			}},
		{workloads.WorkloadStorageScan, map[string][]dandelion.Item{"Blobs": blobs},
			func(out map[string][]dandelion.Item) error {
				if got := string(out["Result"][0].Data); got != wantScan {
					return fmt.Errorf("summary %q, want %q", got, wantScan)
				}
				return nil
			}},
		{workloads.WorkloadStorageFetch, map[string][]dandelion.Item{"Sizes": workloads.MakeFetchSizes(3, 4096)},
			func(out map[string][]dandelion.Item) error {
				if len(out["Blobs"]) != 3 {
					return fmt.Errorf("%d blobs, want 3", len(out["Blobs"]))
				}
				for _, it := range out["Blobs"] {
					if !bytes.Equal(it.Data, workloads.MakeBlob(4096, workloads.SeedFromName(it.Name))) {
						return fmt.Errorf("%s differs from the generator", it.Name)
					}
				}
				return nil
			}},
		{"StorageGet", map[string][]dandelion.Item{"Ops": ops},
			func(out map[string][]dandelion.Item) error {
				for i, it := range out["Results"] {
					ok, payload := dandelion.ParseStorageResult(it.Data)
					if !ok || !bytes.Equal(payload, objects[keys[i]]) {
						return fmt.Errorf("GET %s = %v %q", keys[i], ok, payload)
					}
				}
				return nil
			}},
		{"HTTPGet", map[string][]dandelion.Item{"Reqs": reqs},
			func(out map[string][]dandelion.Item) error {
				for i, it := range out["Resps"] {
					resp, err := dandelion.ParseHTTPResponse(it.Data)
					if err != nil {
						return err
					}
					if resp.Status != 200 || !bytes.Equal(resp.Body, objects[keys[i]]) {
						return fmt.Errorf("GET %s = %d %q", keys[i], resp.Status, resp.Body)
					}
				}
				return nil
			}},
	}
}

// scanSummary is the reference StorageScan answer: blob, byte and
// record ('\n') counts, and the XOR of the blobs' FNV-1a hashes.
func scanSummary(blobs []dandelion.Item) string {
	var bytes, records int
	var hash uint64
	for _, it := range blobs {
		h := uint64(14695981039346656037)
		for _, b := range it.Data {
			h = (h ^ uint64(b)) * 1099511628211
			if b == '\n' {
				records++
			}
		}
		bytes += len(it.Data)
		hash ^= h
	}
	return fmt.Sprintf("blobs=%d bytes=%d records=%d hash=%016x", len(blobs), bytes, records, hash)
}
