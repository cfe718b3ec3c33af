package workloads_test

import (
	"bytes"
	"runtime"
	"testing"

	"dandelion/internal/core"
	"dandelion/internal/memctx"
	"dandelion/internal/ssb"
	"dandelion/internal/workloads"
)

// raceEnabled is set by race_test.go: the race detector drops pooled
// objects at random, so allocation bounds only hold without it.
var raceEnabled bool

// functions is a Registrar that keeps the served function bodies, so a
// test can run the kernels without a platform around them.
type functions map[string]core.GoFunc

func (f functions) RegisterFunction(c core.ComputeFunc) error {
	f[c.Name] = c.Go
	return nil
}

func (functions) RegisterCompositionText(string) ([]string, error) { return nil, nil }

// ssbInvocation returns one SSBQuery invocation's kernels as its
// composition runs them — SSBPartial per 2^13-row chunk, then SSBMerge
// over the partials — checked against SSBExpect on the first call.
func ssbInvocation(tb testing.TB, q ssb.QueryID) func() {
	tb.Helper()
	fns := functions{}
	if _, err := workloads.Register(fns, "ssb"); err != nil {
		tb.Fatal(err)
	}
	const rows, nChunks = 1 << 15, 4
	chunks, err := workloads.MakeSSBChunks(rows, nChunks)
	if err != nil {
		tb.Fatal(err)
	}
	want, err := workloads.SSBExpect(q, rows)
	if err != nil {
		tb.Fatal(err)
	}
	query := memctx.Set{Name: "Q", Items: []memctx.Item{workloads.MakeSSBQuery(q)}}
	partials := make([]memctx.Item, nChunks)
	run := func() []byte {
		for i, c := range chunks {
			out, err := fns["SSBPartial"]([]memctx.Set{query, {Name: "Chunk", Items: []memctx.Item{c}}})
			if err != nil {
				tb.Fatal(err)
			}
			partials[i] = out[0].Items[0]
		}
		out, err := fns["SSBMerge"]([]memctx.Set{{Name: "Partials", Items: partials}})
		if err != nil {
			tb.Fatal(err)
		}
		return out[0].Items[0].Data
	}
	if got := run(); !bytes.Equal(got, want.Encode()) {
		tb.Fatalf("%s: merged %q, want %q", q, got, want.Encode())
	}
	return func() { run() }
}

// A warm SSB invocation reuses its chunk columns and selections: what
// it allocates is groups, keys and encodings, well under the 1.6 MB the
// per-call scratch cost.
func TestWarmSSBInvocationAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	for _, q := range ssb.Queries() {
		run := ssbInvocation(t, q)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("%s: %.0f allocs, %d B per invocation", q, allocs, perRun)
		if perRun >= 512<<10 {
			t.Errorf("%s: one invocation allocates %d B, want < 512 KiB", q, perRun)
		}
	}
}

// BenchmarkSSBQuery times one SSBQuery invocation's kernels: four
// 2^13-row SSBPartial instances and the SSBMerge over them.
func BenchmarkSSBQuery(b *testing.B) {
	for _, q := range ssb.Queries() {
		b.Run(string(q), func(b *testing.B) {
			run := ssbInvocation(b, q)
			b.ReportAllocs()
			for b.Loop() {
				run()
			}
		})
	}
}

// BenchmarkStorageKernels times the storage suite's two per-blob
// kernels on one 256 KiB blob, the size batch-egress and batch-ingest
// send: StoreGen generates it, StoreScan checksums it. StoreScan's
// FNV-1a chain is one dependency chain by definition, so its row is
// the control for StoreGen's.
func BenchmarkStorageKernels(b *testing.B) {
	const blobSize = 256 << 10
	fns := functions{}
	if _, err := workloads.Register(fns, "storage"); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		kernel string
		in     memctx.Set
	}{
		{"StoreGen", memctx.Set{Name: "Size", Items: workloads.MakeFetchSizes(1, blobSize)}},
		{"StoreScan", memctx.Set{Name: "Blob", Items: workloads.MakeScanBlobs(1, blobSize)}},
	} {
		b.Run(c.kernel, func(b *testing.B) {
			b.SetBytes(blobSize)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := fns[c.kernel]([]memctx.Set{c.in}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
