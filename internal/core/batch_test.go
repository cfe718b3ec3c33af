package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// registerUpperPipeline registers the Upper function and a two-stage
// composition used by the batch tests.
func registerUpperPipeline(t *testing.T, p *Platform) {
	t.Helper()
	if err := p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper}); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "Concat", Go: concat}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.reg.addCompositionText(`
composition Pipe(In) => Result {
    Upper(x = all In) => (Mid = Out);
    Concat(y = all Mid) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyEnforcesMemoryLimit: ownership moves change how bytes
// move, not how much memory a function may hold — a function whose
// outputs exceed its declared MemBytes must fail on both entry points.
func TestZeroCopyEnforcesMemoryLimit(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	if err := p.RegisterFunction(ComputeFunc{Name: "Huge", MemBytes: 1 << 10, Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out", Items: []memctx.Item{{Name: "x", Data: make([]byte, 1<<20)}}}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.reg.addCompositionText(`
composition H(In) => Result {
    Huge(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	_, err := p.Invoke(context.Background(), Request{Composition: "H", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if !errors.Is(err, memctx.ErrOutOfBounds) {
		t.Fatalf("oversized output err = %v, want ErrOutOfBounds", err)
	}
	res := p.InvokeBatch(context.Background(), []Request{{Composition: "H", Inputs: map[string][]memctx.Item{"In": items("x")}}})
	if !errors.Is(res[0].Err, memctx.ErrOutOfBounds) {
		t.Fatalf("batched oversized output err = %v, want ErrOutOfBounds", res[0].Err)
	}
}

// TestInvokeBatchZeroCopyFanout: the handoff plane must survive the
// distribution keywords — `each` fan-out splits a handed-off set's
// items across instances (partial consumption of a moved set), and the
// fan-in merge re-assembles instance outputs — with results identical
// to single invokes.
func TestInvokeBatchZeroCopyFanout(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 3})
	if err := p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper}); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "Concat", Go: concat}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.reg.addCompositionText(`
composition F(In) => Result {
    Upper(x = each In) => (Mid = Out);
    Concat(y = all Mid) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Composition: "F", Inputs: map[string][]memctx.Item{"In": items("a", "b", "c")}},
		{Composition: "F", Inputs: map[string][]memctx.Item{"In": items("x", "y")}},
	}
	want := []string{"A|B|C", "X|Y"}
	for i, res := range p.InvokeBatch(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		single, err := p.Invoke(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		b, s := string(res.Outputs["Result"][0].Data), string(single["Result"][0].Data)
		if b != want[i] || s != want[i] {
			t.Fatalf("request %d: batch %q, invoke %q, want %q", i, b, s, want[i])
		}
	}
}

func TestInvokeBatchPerRequestErrors(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	registerUpperPipeline(t, p)
	if err := p.RegisterFunction(ComputeFunc{Name: "Boom", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		if string(in[0].Items[0].Data) == "explode" {
			return nil, errors.New("kaboom")
		}
		return []memctx.Set{{Name: "Out", Items: in[0].Items}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.reg.addCompositionText(`
composition B(In) => Result {
    Boom(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	reqs := []Request{
		{Composition: "B", Inputs: map[string][]memctx.Item{"In": items("fine")}},
		{Composition: "B", Inputs: map[string][]memctx.Item{"In": items("explode")}},
		{Composition: "NoSuch", Inputs: map[string][]memctx.Item{"In": items("x")}},
		{Composition: "B", Inputs: map[string][]memctx.Item{"Wrong": items("x")}},
		{Composition: "Pipe", Inputs: map[string][]memctx.Item{"In": items("ok")}},
	}
	got := p.InvokeBatch(context.Background(), reqs)
	if got[0].Err != nil {
		t.Fatalf("healthy request failed: %v", got[0].Err)
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "kaboom") {
		t.Fatalf("crashing request err = %v", got[1].Err)
	}
	if !errors.Is(got[2].Err, ErrNotRegistered) {
		t.Fatalf("unknown composition err = %v", got[2].Err)
	}
	if !errors.Is(got[3].Err, ErrMissingInput) {
		t.Fatalf("missing input err = %v", got[3].Err)
	}
	if got[4].Err != nil || string(got[4].Outputs["Result"][0].Data) != "OK" {
		t.Fatalf("batch-mate of failures did not complete: %+v", got[4])
	}
}

func TestInvokeBatchFanoutInstances(t *testing.T) {
	// `each` distribution: every item becomes its own instance; batching
	// must preserve per-request instance-order merges.
	p := newPlatform(t, Options{ComputeEngines: 3})
	if err := p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.reg.addCompositionText(`
composition E(In) => Result {
    Upper(x = each In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Composition: "E", Inputs: map[string][]memctx.Item{"In": items("a", "b", "c")}},
		{Composition: "E", Inputs: map[string][]memctx.Item{"In": items("x", "y")}},
	}
	got := p.InvokeBatch(context.Background(), reqs)
	join := func(its []memctx.Item) string {
		var parts []string
		for _, it := range its {
			parts = append(parts, string(it.Data))
		}
		return strings.Join(parts, ",")
	}
	if got[0].Err != nil || join(got[0].Outputs["Result"]) != "A,B,C" {
		t.Fatalf("req0 = %v / %q", got[0].Err, join(got[0].Outputs["Result"]))
	}
	if got[1].Err != nil || join(got[1].Outputs["Result"]) != "X,Y" {
		t.Fatalf("req1 = %v / %q", got[1].Err, join(got[1].Outputs["Result"]))
	}
}

func TestInvokeBatchDvmSharedProgram(t *testing.T) {
	// Binary-backed functions: the batch path runs the program decoded
	// at registration, and two names registered with one binary share
	// that one program.
	p := newPlatform(t, Options{ComputeEngines: 2})
	for _, name := range []string{"Echo", "EchoAgain"} {
		if err := p.RegisterFunction(ComputeFunc{
			Name:       name,
			Binary:     dvm.EchoProgram().Encode(),
			MemBytes:   1 << 16,
			OutputSets: []string{"Copy"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Stats().CachedPrograms; n != 1 {
		t.Fatalf("CachedPrograms = %d after two registrations of one binary, want 1", n)
	}
	if _, err := p.reg.addCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`); err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Composition: "E", Inputs: map[string][]memctx.Item{
			"In": items(fmt.Sprintf("payload-%d", i)),
		}}
	}
	got := p.InvokeBatch(context.Background(), reqs)
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if s := string(res.Outputs["Result"][0].Data); s != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("request %d echoed %q", i, s)
		}
	}
	if n := p.Stats().CachedPrograms; n != 1 {
		t.Fatalf("CachedPrograms = %d, want 1", n)
	}
}

func TestInvokeBatchMixedCompositionsAndStats(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	registerUpperPipeline(t, p)
	if _, err := p.reg.addCompositionText(`
composition Solo(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	reqs := []Request{
		{Composition: "Pipe", Inputs: map[string][]memctx.Item{"In": items("p")}},
		{Composition: "Solo", Inputs: map[string][]memctx.Item{"In": items("s")}},
		{Composition: "Pipe", Inputs: map[string][]memctx.Item{"In": items("q")}},
	}
	got := p.InvokeBatch(context.Background(), reqs)
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	if string(got[1].Outputs["Result"][0].Data) != "S" {
		t.Fatalf("solo output = %q", got[1].Outputs["Result"][0].Data)
	}
	after := p.Stats()
	if after.Batches != before.Batches+1 {
		t.Fatalf("Batches %d -> %d, want +1", before.Batches, after.Batches)
	}
	if after.Invocations != before.Invocations+3 {
		t.Fatalf("Invocations %d -> %d, want +3", before.Invocations, after.Invocations)
	}
}

func TestInvokeBatchEmptyAndNestedComposition(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	registerUpperPipeline(t, p)
	if _, err := p.reg.addCompositionText(`
composition Outer(In) => Result {
    Pipe(In = all In) => (Result = Result);
}`); err != nil {
		t.Fatal(err)
	}
	if res := p.InvokeBatch(context.Background(), nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	got := p.InvokeBatch(context.Background(), []Request{
		{Composition: "Outer", Inputs: map[string][]memctx.Item{"In": items("deep")}},
	})
	if got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	if s := string(got[0].Outputs["Result"][0].Data); s != "DEEP" {
		t.Fatalf("nested batch output = %q", s)
	}
}

func TestMemctxResetIsolation(t *testing.T) {
	// A reused context must not leak one instance's sets, charge or
	// borrowed memory into the next.
	ctx, _ := memctx.NewPooled(1 << 12)
	released := false
	region := memctx.NewRegion(func() { released = true })
	secret := []memctx.Item{{Name: "s", Data: []byte("secret")}}
	if err := ctx.AdoptInputSetBorrowed(memctx.Set{Name: "In", Items: secret}, region); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AdoptOutputs([]memctx.Set{{Name: "Out", Items: secret}}); err != nil {
		t.Fatal(err)
	}
	ctx.Seal()
	region.Release() // the creator's reference; the context still holds one
	ctx.Reset()
	if !released {
		t.Fatal("Reset kept the borrowed region")
	}
	if n := len(ctx.ShareInputSets()); n != 0 {
		t.Fatalf("Reset leaked %d input sets", n)
	}
	if ctx.CommittedBytes() != 0 {
		t.Fatalf("CommittedBytes after Reset = %d", ctx.CommittedBytes())
	}
	if _, err := ctx.TakeOutputs(); !errors.Is(err, memctx.ErrNotSealed) {
		t.Fatalf("Reset did not unseal: TakeOutputs err = %v", err)
	}
	ctx.Seal()
	if outs, _ := ctx.TakeOutputs(); len(outs) != 0 {
		t.Fatalf("Reset leaked %d output sets", len(outs))
	}
}

// TestInvokeBatchMixedTenants: one batch carrying two tenants' requests
// still returns per-request results in order, and each tenant's work is
// scheduled and accounted under its own gauges.
func TestInvokeBatchMixedTenants(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 2})
	registerUpperPipeline(t, p)

	var reqs []Request
	for i := 0; i < 6; i++ {
		tenant := "alice"
		if i%2 == 1 {
			tenant = "bob"
		}
		reqs = append(reqs, Request{
			Composition: "Pipe",
			Tenant:      tenant,
			Inputs: map[string][]memctx.Item{
				"In": {{Name: "x", Data: []byte(fmt.Sprintf("t%d", i))}},
			},
		})
	}
	results := p.InvokeBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
		if got := string(res.Outputs["Result"][0].Data); got != fmt.Sprintf("T%d", i) {
			t.Fatalf("result %d = %q", i, got)
		}
	}

	completed := map[string]uint64{}
	for _, ts := range p.Stats().Tenants {
		completed[ts.Tenant] = ts.Completed
	}
	if completed["alice"] == 0 || completed["bob"] == 0 {
		t.Fatalf("per-tenant completion gauges missing: %+v", p.Stats().Tenants)
	}
	if completed[DefaultTenant] != 0 {
		t.Fatalf("tagged requests leaked into the default tenant: %+v", p.Stats().Tenants)
	}
}

// TestInvokeBatchBorrowedRegionLifetime: requests whose inputs alias
// externally pooled memory (Request.Borrow) must keep the lease alive
// for the whole execution, and the release hook must fire exactly once
// — at the creator's release, since every compute context drops its
// retain when it is reset or recycled before InvokeBatch returns.
func TestInvokeBatchBorrowedRegionLifetime(t *testing.T) {
	t.Run("ZeroCopy=true", testInvokeBatchBorrowedRegionLifetime)
}

// testInvokeBatchBorrowedRegionLifetime is the zero-copy case; ownership moves are the
// only data plane.
func testInvokeBatchBorrowedRegionLifetime(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 4})
	registerUpperPipeline(t, p)

	recycled := false
	region := memctx.NewRegion(func() { recycled = true })
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{
			Composition: "Pipe",
			Inputs: map[string][]memctx.Item{
				"In": items(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)),
			},
			Borrow: region,
		}
	}
	results := p.InvokeBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		if !strings.Contains(string(res.Outputs["Result"][0].Data), strings.ToUpper(fmt.Sprintf("a%d", i))) {
			t.Fatalf("request %d: wrong payload %q", i, res.Outputs["Result"][0].Data)
		}
	}
	// Every context retain must be balanced by the time the batch
	// returns: only the creator's reference is left, and the hook has
	// not fired — the caller may still be reading the outputs.
	if got := region.Refs(); got != 1 {
		t.Fatalf("refs after InvokeBatch = %d, want 1 (creator)", got)
	}
	if recycled {
		t.Fatal("release hook fired before the creator released")
	}
	region.Release()
	if !recycled {
		t.Fatal("release hook did not fire at the creator's release")
	}
}

// TestSchedAwareChunksByteAware: byte pressure splits a solo tenant's
// work list finer than the one-chunk-per-engine floor — no chunk should
// average more than chunkByteTarget of payload — while tiny-payload
// lists keep the floor untouched.
func TestSchedAwareChunksByteAware(t *testing.T) {
	const engines = 4
	p := newPlatform(t, Options{ComputeEngines: engines})

	// 64 MiB over 64 items: 16 chunks of ~4 MiB, well past the floor.
	if got := p.schedAwareChunks("alice", 64, 64<<20); got != 16 {
		t.Fatalf("64 MiB chunks = %d, want 16", got)
	}
	// Byte pressure never splits finer than one item per chunk.
	if got := p.schedAwareChunks("alice", 3, 64<<20); got != 3 {
		t.Fatalf("3-item chunks = %d, want 3", got)
	}
	// Tiny payloads leave the engine floor in charge.
	if got := p.schedAwareChunks("alice", 1000, 1<<10); got != engines {
		t.Fatalf("tiny-payload chunks = %d, want %d", got, engines)
	}
}

// TestChunkBoundsByBytes: boundaries balance cumulative payload bytes,
// not item count — a single heavy item gets a chunk to itself instead
// of dragging a count-equal share of light items along.
func TestChunkBoundsByBytes(t *testing.T) {
	items := make([]batchItem, 33)
	items[0].bytes = 1 << 20
	var total int64 = 1 << 20
	for i := 1; i < len(items); i++ {
		items[i].bytes = 1 << 10
		total += 1 << 10
	}
	bounds := chunkBoundsByBytes(items, 4, total)
	if len(bounds) != 5 || bounds[0] != 0 || bounds[4] != len(items) {
		t.Fatalf("bad bounds %v", bounds)
	}
	for c := 0; c < 4; c++ {
		if bounds[c+1] <= bounds[c] {
			t.Fatalf("empty chunk %d in %v", c, bounds)
		}
	}
	// The heavy item already covers chunk 0's byte share alone.
	if bounds[1] != 1 {
		t.Fatalf("heavy item not isolated: bounds = %v", bounds)
	}
	// The light items spread across the remaining chunks instead of
	// piling into one.
	for c := 1; c < 4; c++ {
		if n := bounds[c+1] - bounds[c]; n < 8 {
			t.Fatalf("light chunk %d holds %d items, want >= 8 (%v)", c, n, bounds)
		}
	}

	// Zero payload bytes: even count split.
	zero := make([]batchItem, 8)
	b := chunkBoundsByBytes(zero, 4, 0)
	for c := 0; c < 4; c++ {
		if b[c+1]-b[c] != 2 {
			t.Fatalf("zero-byte split uneven: %v", b)
		}
	}
}
