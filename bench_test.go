// Benchmarks regenerating the paper's tables and figures (one per
// experiment, DESIGN.md §3) plus microbenchmarks of the core building
// blocks. Figure benchmarks run the deterministic performance models
// and report the headline metric the paper plots via b.ReportMetric;
// run `go test -bench=. -benchmem` or `cmd/experiments` for the full
// printed tables.
package dandelion_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/dvm"
	"dandelion/internal/experiments"
	"dandelion/internal/frontend"
	"dandelion/internal/isolation"
	"dandelion/internal/loadgen"
	"dandelion/internal/memctx"
	"dandelion/internal/ssb"
	"dandelion/internal/stats"
	"dandelion/internal/workloads"
)

// mustCell extracts a numeric cell from an experiment table.
func mustCell(b *testing.B, t experiments.Table, rowPrefix string, col int) float64 {
	b.Helper()
	for _, r := range t.Rows {
		if len(r) > col && len(rowPrefix) <= len(r[0]) && r[0][:len(rowPrefix)] == rowPrefix {
			v, err := strconv.ParseFloat(r[col], 64)
			if err != nil {
				b.Fatalf("cell %q not numeric", r[col])
			}
			return v
		}
	}
	b.Fatalf("row %q not found in %s", rowPrefix, t.Title)
	return 0
}

func BenchmarkFig1AzureKnativeMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1(true)
		committed := mustCell(b, t, "FC + Knative committed", 1)
		active := mustCell(b, t, "VMs actively serving", 1)
		b.ReportMetric(committed/active, "committed/active_x")
	}
}

func BenchmarkFig2FirecrackerHotRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig2(true)
		b.ReportMetric(mustCell(b, t, "FC-snapshot 97% hot", 2), "p99.5_ms_97hot")
		b.ReportMetric(mustCell(b, t, "FC-snapshot 100% hot", 2), "p99.5_ms_100hot")
	}
}

func BenchmarkTable1SandboxBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		b.ReportMetric(mustCell(b, t, "Total", 1), "cheri_total_us")
		b.ReportMetric(mustCell(b, t, "Total", 4), "kvm_total_us")
	}
}

func BenchmarkFig5SandboxCreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig5(true)
		b.ReportMetric(mustCell(b, t, "D cheri", 2), "cheri_p99_ms")
		b.ReportMetric(mustCell(b, t, "FC w/ snapshot", 2), "fcsnap_p99_ms")
	}
}

func BenchmarkFig6ComputeFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig6(true)
		b.ReportMetric(mustCell(b, t, "D KVM", 2), "dkvm_median_ms")
		b.ReportMetric(mustCell(b, t, "WT", 2), "wt_median_ms")
	}
}

func BenchmarkFigPhasesComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.FigPhases()
		// 16-phase row: Dandelion KVM uncached vs FC cold.
		last := t.Rows[len(t.Rows)-1]
		d, _ := strconv.ParseFloat(last[1], 64)
		fc, _ := strconv.ParseFloat(last[4], 64)
		b.ReportMetric(fc/d, "fccold_over_d_16phases")
	}
}

func BenchmarkFig7HybridSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig7(true)
		_ = t
		b.ReportMetric(float64(len(t.Rows)), "configs_evaluated")
	}
}

func BenchmarkFig8Multiplexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig8(true)
		b.ReportMetric(mustCell(b, t, "Dandelion", 4), "dandelion_relvar_pct")
	}
}

func BenchmarkFig9SSBQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9(100_000)
		b.ReportMetric(mustCell(b, t, "Q1.1", 1), "q11_dandelion_ms")
		b.ReportMetric(mustCell(b, t, "Q1.1", 3), "q11_athena_ms")
	}
}

func BenchmarkText2SQLWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunText2SQL(20 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, m := range res.Millis {
			total += m
		}
		b.ReportMetric(total, "e2e_ms")
		b.ReportMetric(res.Millis[1]/total*100, "llm_pct")
	}
}

func BenchmarkFig10AzureMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig10(true)
		kn := mustCell(b, t, "FC + Knative committed", 1)
		dd := mustCell(b, t, "Dandelion committed", 1)
		b.ReportMetric(kn/dd, "memory_ratio_x")
	}
}

// Ablation benches (DESIGN.md §4).

func BenchmarkAblationWarmCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationWarmCache()
		b.ReportMetric(mustCell(b, t, "always cold", 2), "cold_mean_ms")
		b.ReportMetric(mustCell(b, t, "warm cache", 2), "warm_mean_ms")
	}
}

func BenchmarkAblationStaticSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationStaticSplit()
		b.ReportMetric(mustCell(b, t, "PI controller", 2), "pi_p99_ms")
	}
}

func BenchmarkAblationBinaryCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AblationBinaryCache()
		b.ReportMetric(mustCell(b, t, "kvm", 3), "kvm_saved_us")
	}
}

// Microbenchmarks of the core building blocks.

func BenchmarkDvmMatMul16(b *testing.B) {
	prog := dvm.MatMulProgram(16)
	a := make([]byte, 16*16*8)
	inputs := []memctx.Set{{Name: "m", Items: []memctx.Item{
		{Name: "A", Data: a}, {Name: "B", Data: a},
	}}}
	mem := dvm.MatMulMemBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dvm.Run(prog, mem, inputs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsolationColdStart(b *testing.B) {
	sandbox, err := isolation.New("cheri")
	if err != nil {
		b.Fatal(err)
	}
	task := isolation.Task{
		Prepared: dvm.EchoProgram(),
		MemBytes: 4096,
		Inputs: []memctx.Set{{Name: "in", Items: []memctx.Item{
			{Name: "x", Data: []byte("payload")},
		}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sandbox.Execute(task); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemctxTransfer(b *testing.B) {
	payload := make([]byte, 64<<10)
	for i := 0; i < b.N; i++ {
		src := memctx.New(1 << 20)
		dst := memctx.New(1 << 20)
		src.SetOutputs([]memctx.Set{{Name: "o", Items: []memctx.Item{{Name: "x", Data: payload}}}})
		if err := src.TransferOutput("o", dst, "i"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemctxHandoff(b *testing.B) {
	payload := make([]byte, 64<<10)
	for i := 0; i < b.N; i++ {
		src := memctx.New(1 << 20)
		dst := memctx.New(1 << 20)
		src.SetOutputs([]memctx.Set{{Name: "o", Items: []memctx.Item{{Name: "x", Data: payload}}}})
		src.Seal()
		if err := src.HandoffOutput("o", dst, "i"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatformInvoke(b *testing.B) {
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Shutdown()
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Id", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
	}})
	p.RegisterCompositionText(`
composition I(In) => Result {
    Id(x = all In) => (Result = Out);
}`)
	input := map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("y")}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(context.Background(), dandelion.Request{Composition: "I", Inputs: input}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSBQ11(b *testing.B) {
	db := ssb.Generate(100_000, 42)
	b.SetBytes(int64(db.Facts.Len()) * ssb.BytesPerRow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssb.RunQuery(db, ssb.Q11, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSBAllQueriesParallel8(b *testing.B) {
	db := ssb.Generate(100_000, 42)
	for _, q := range ssb.Queries() {
		q := q
		b.Run(string(q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ssb.RunQuery(db, q, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDSLParse(b *testing.B) {
	const src = `
composition RenderLogs(AccessToken) => HTMLOutput {
    Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
    HTTP(Request = each AuthRequest) => (AuthResponse = Response);
    FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
    HTTP(Request = each LogRequests) => (LogResponses = Response);
    Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
}`
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Parse via a fresh registration each time under a unique name.
		text := fmt.Sprintf("composition C%d(I) => O { F(x = all I) => (O = Out); }", i)
		if _, err := p.RegisterCompositionText(text); err != nil {
			b.Fatal(err)
		}
		_ = src
	}
}

// BenchmarkInvokeBatch compares the batched dispatch path against an
// equivalent loop of single Invokes on the same 4-engine platform. The
// batch path amortizes queue round trips, memory-context allocation,
// and program decode across a whole batch (ISSUE 1 acceptance: >= 2x
// invocations/sec over the sequential loop).
func BenchmarkInvokeBatch(b *testing.B) {
	const batch = 64
	newP := func(b *testing.B) *dandelion.Platform {
		p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Shutdown)
		p.RegisterFunction(dandelion.ComputeFunc{Name: "Id", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		}})
		p.RegisterCompositionText(`
composition I(In) => Result {
    Id(x = all In) => (Result = Out);
}`)
		return p
	}
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}

	b.Run("sequential", func(b *testing.B) {
		p := newP(b)
		input := map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("y")}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := p.Invoke(context.Background(), dandelion.Request{Composition: "I", Inputs: input}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "inv/s")
	})
	b.Run("batch", func(b *testing.B) {
		p := newP(b)
		reqs := dandelion.BatchOf("", "I", "In", payloads...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := p.InvokeBatch(context.Background(), reqs)
			for _, r := range res {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "inv/s")
	})
}

// BenchmarkServingHTTP measures the serving path end to end at the
// HTTP level: the closed-loop load generator drives /invoke-batch/ on
// an in-process httptest frontend over real sockets, with an identity
// function so request framing — not compute — dominates. The grid
// crosses the two wire framings (JSON+base64 vs the length-prefixed
// binary form, docs/WIRE.md) with small and multi-KiB payloads; each
// sub-benchmark reports invocations/sec and wire MB/s (ISSUE 7
// acceptance: binary >= 2x JSON inv/s on the multi-KiB shape, recorded
// in BENCH_7.json).
func BenchmarkServingHTTP(b *testing.B) {
	newSrv := func(b *testing.B) *httptest.Server {
		p, err := dandelion.New(dandelion.Options{ComputeEngines: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Shutdown)
		if err := p.RegisterFunction(dandelion.ComputeFunc{Name: "Id", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		}}); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RegisterCompositionText(`
composition I(In) => Result {
    Id(x = all In) => (Result = Out);
}`); err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(frontend.New(p))
		b.Cleanup(srv.Close)
		return srv
	}
	framings := []struct {
		name   string
		binary bool
	}{{"json", false}, {"binary", true}}
	sizes := []struct {
		name  string
		bytes int
	}{{"small", 64}, {"8KiB", 8 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}}
	for _, fr := range framings {
		for _, sz := range sizes {
			b.Run(fr.name+"/"+sz.name, func(b *testing.B) {
				srv := newSrv(b)
				payload := bytes.Repeat([]byte("d"), sz.bytes)
				cfg := loadgen.Config{
					BaseURL:     srv.URL,
					Client:      srv.Client(),
					Composition: "I",
					InputSet:    "In",
					OutputSet:   "Result",
					Clients:     4,
					Requests:    b.N,
					BatchSize:   16,
					Binary:      fr.binary,
					Payload:     func(client, seq, i int) []byte { return payload },
				}
				b.ResetTimer()
				rep, err := loadgen.Run(cfg)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errors != 0 {
					b.Fatalf("%d/%d invocations failed", rep.Errors, rep.Invocations)
				}
				b.ReportMetric(rep.Throughput, "inv/s")
				b.ReportMetric(rep.BytesPerSec/1e6, "wire_MB/s")
			})
		}
	}
}

// BenchmarkMixedTenants measures the byte-fair serving plane under the
// ISSUE 10 mixed shape: the three served workload suites
// (docs/WORKLOADS.md) drive one frontend concurrently as three tenants
// — interactive image transcodes, an SSB analytics flood shipping
// ~80 KiB fact chunks in batches, and quarter-MiB storage scans — with
// Options.ByteFairness charging DRR deficits in payload bytes. Each
// scenario reports its own inv/s, wire MB/s, and request-latency p99
// (the per-scenario rows BENCH_10.json records); the interactive p99
// staying flat while analytics floods is the fairness story in one
// number.
func BenchmarkMixedTenants(b *testing.B) {
	p, err := dandelion.New(dandelion.Options{
		ComputeEngines: 4,
		ByteFairness:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Shutdown)
	if _, err := workloads.Register(p, "all"); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(frontend.New(p))
	b.Cleanup(srv.Close)

	img := workloads.MakeImages(1, 32, 32)[0]
	chunks, err := workloads.MakeSSBChunks(1<<13, 4)
	if err != nil {
		b.Fatal(err)
	}
	query := workloads.MakeSSBQuery(ssb.Q11)
	blobs := workloads.MakeScanBlobs(2, 128<<10)

	cfg := func(c loadgen.Config) loadgen.Config {
		c.BaseURL = srv.URL
		c.Client = srv.Client()
		c.Requests = b.N
		return c
	}
	b.ResetTimer()
	rep, err := loadgen.RunMixed(
		cfg(loadgen.Config{
			Composition: workloads.WorkloadImagePipeline,
			InputSet:    "Images",
			OutputSet:   "PNGs",
			Tenant:      "interactive",
			Clients:     2,
			BatchSize:   1,
			Payload:     func(client, seq, i int) []byte { return img.Data },
		}),
		cfg(loadgen.Config{
			Composition: workloads.WorkloadSSBQuery,
			OutputSet:   "Result",
			Tenant:      "analytics",
			Clients:     4,
			BatchSize:   4,
			Binary:      true,
			Inputs: func(client, seq, i int) map[string][]memctx.Item {
				return map[string][]memctx.Item{"Query": {query}, "Chunks": chunks}
			},
		}),
		cfg(loadgen.Config{
			Composition: workloads.WorkloadStorageScan,
			OutputSet:   "Result",
			Tenant:      "storage",
			Clients:     2,
			BatchSize:   2,
			Binary:      true,
			Inputs: func(client, seq, i int) map[string][]memctx.Item {
				return map[string][]memctx.Item{"Blobs": blobs}
			},
		}),
	)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors != 0 {
		b.Fatalf("%d/%d invocations failed [%s]", rep.Errors, rep.Invocations, rep.Classes)
	}
	for tenant, tr := range rep.Tenants {
		b.ReportMetric(tr.Throughput, tenant+"_inv/s")
		b.ReportMetric(tr.BytesPerSec/1e6, tenant+"_wire_MB/s")
		b.ReportMetric(float64(tr.P99.Microseconds())/1e3, tenant+"_p99_ms")
	}
}

// BenchmarkServingJournal measures what the durable invocation journal
// costs the HTTP serving path (docs/JOURNAL.md): "off" is the plain
// platform, "on-unkeyed" a file-journaled platform serving traffic
// without idempotency keys (keyed-only journaling means nothing is
// appended — the delta should be noise), and "on-keyed" the full
// journaled path (per-request keys, dedup reservation, two records per
// invocation). ISSUE 8 acceptance compares off against the BENCH_7
// serving numbers (< 2% regression) and records the on/off delta in
// BENCH_8.json.
func BenchmarkServingJournal(b *testing.B) {
	newSrv := func(b *testing.B, journaled bool) *httptest.Server {
		opts := dandelion.Options{ComputeEngines: 4}
		if journaled {
			opts.JournalDir = b.TempDir()
		}
		p, err := dandelion.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Shutdown)
		if err := p.RegisterFunction(dandelion.ComputeFunc{Name: "Id", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		}}); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RegisterCompositionText(`
composition I(In) => Result {
    Id(x = all In) => (Result = Out);
}`); err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(frontend.New(p))
		b.Cleanup(srv.Close)
		return srv
	}
	modes := []struct {
		name      string
		journaled bool
		keyPrefix string
	}{
		{"off", false, ""},
		{"on-unkeyed", true, ""},
		{"on-keyed", true, "bench"},
	}
	payload := bytes.Repeat([]byte("d"), 64)
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			srv := newSrv(b, m.journaled)
			cfg := loadgen.Config{
				BaseURL:     srv.URL,
				Client:      srv.Client(),
				Composition: "I",
				InputSet:    "In",
				OutputSet:   "Result",
				Clients:     4,
				Requests:    b.N,
				BatchSize:   16,
				Binary:      true,
				KeyPrefix:   m.keyPrefix,
				Payload:     func(client, seq, i int) []byte { return payload },
			}
			b.ResetTimer()
			rep, err := loadgen.Run(cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors != 0 {
				b.Fatalf("%d/%d invocations failed", rep.Errors, rep.Invocations)
			}
			b.ReportMetric(rep.Throughput, "inv/s")
		})
	}
}

// BenchmarkStatsContention isolates the hot-path bookkeeping pattern of
// the dispatcher — every invoke ticks a few counters — and compares a
// single mutex-guarded counter struct against sharded atomic counters.
// stats.Counter is the single-counter reference form of the sharding
// machinery (ShardCount/ShardIndex/CacheLinePad padding) that
// internal/core's hotCounters block is built on. Run with
// -cpu 1,2,4,... to see the mutex flatline (all updaters serialize on
// one cache line) while the sharded version scales with GOMAXPROCS:
// each goroutine lands on its own padded shard, and Stats() merges
// lazily at read time. ISSUE 4 acceptance records both in BENCH_4.json.
func BenchmarkStatsContention(b *testing.B) {
	// One "bookkeeping event" = two counter ticks (a count and a byte
	// total), matching what one boundary crossing costs the dispatcher.
	b.Run("mutex", func(b *testing.B) {
		var mu sync.Mutex
		var sets, bytes uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				sets++
				bytes += 10
				mu.Unlock()
			}
		})
		if sets != uint64(b.N) || bytes != 10*uint64(b.N) {
			b.Fatalf("lost updates: sets=%d bytes=%d N=%d", sets, bytes, b.N)
		}
	})
	b.Run("sharded", func(b *testing.B) {
		sets, bytes := stats.NewCounter(), stats.NewCounter()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				sets.Add(1)
				bytes.Add(10)
			}
		})
		if sets.Load() != uint64(b.N) || bytes.Load() != 10*uint64(b.N) {
			b.Fatalf("lost updates: sets=%d bytes=%d N=%d", sets.Load(), bytes.Load(), b.N)
		}
	})
}

// BenchmarkMemctxPooled measures the pooled-context acquire/dirty/
// recycle cycle against allocating a fresh context per invocation, the
// allocation the invoke hot path used to pay.
func BenchmarkMemctxPooled(b *testing.B) {
	payload := make([]byte, 4<<10)
	run := func(b *testing.B, acquire func() *memctx.Context, release func(*memctx.Context)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := acquire()
			if err := c.AddInputSet(memctx.Set{Name: "in", Items: []memctx.Item{{Name: "x", Data: payload}}}); err != nil {
				b.Fatal(err)
			}
			if err := c.SetOutputs([]memctx.Set{{Name: "out", Items: []memctx.Item{{Name: "y", Data: payload}}}}); err != nil {
				b.Fatal(err)
			}
			c.Seal()
			if _, err := c.TakeOutputs(); err != nil {
				b.Fatal(err)
			}
			release(c)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func() *memctx.Context { return memctx.New(1 << 20) }, func(*memctx.Context) {})
	})
	b.Run("pooled", func(b *testing.B) {
		run(b, func() *memctx.Context { c, _ := memctx.NewPooled(1 << 20); return c }, memctx.Recycle)
	})
}
