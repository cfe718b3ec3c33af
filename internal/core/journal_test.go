package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"dandelion/internal/journal"
	"dandelion/internal/memctx"
)

// newJournaled builds a platform over jrnl without registering the
// platform's Shutdown to close it — the reopen tests hand one journal
// to two platform lives.
func journaledPlatform(t *testing.T, jrnl journal.Journal, opts Options) *Platform {
	t.Helper()
	opts.Journal = jrnl
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	registerUpper(t, p)
	return p
}

func TestKeyedInvokeDedup(t *testing.T) {
	p := journaledPlatform(t, journal.NewMemory(), Options{})
	in := map[string][]memctx.Item{"In": items("hi")}

	out, err := p.Invoke(context.Background(), Request{Composition: "U", Tenant: "alice", Key: "k1", Inputs: in})
	if err != nil || string(out["Result"][0].Data) != "HI" {
		t.Fatalf("first keyed invoke: %v %v", out, err)
	}
	// The duplicate replays the cached outputs without executing.
	before := p.Stats().Invocations
	out2, err := p.Invoke(context.Background(), Request{Composition: "U", Tenant: "alice", Key: "k1", Inputs: in})
	if err != nil || string(out2["Result"][0].Data) != "HI" {
		t.Fatalf("duplicate keyed invoke: %v %v", out2, err)
	}
	st := p.Stats()
	if st.Invocations != before {
		t.Fatalf("duplicate executed: invocations %d -> %d", before, st.Invocations)
	}
	if st.DedupHits != 1 || st.DedupEntries != 1 {
		t.Fatalf("dedup gauges = hits %d entries %d, want 1 1", st.DedupHits, st.DedupEntries)
	}
	if st.JournalAppends != 2 { // begin + end
		t.Fatalf("journal appends = %d, want 2", st.JournalAppends)
	}
	if !st.JournalEnabled {
		t.Fatal("JournalEnabled not reported")
	}
}

func TestKeyedInvokeFailureIsRetryable(t *testing.T) {
	p := journaledPlatform(t, journal.NewMemory(), Options{})
	// Unknown input name fails the invocation; the key must be released
	// so a corrected retry can execute.
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Key: "k", Inputs: map[string][]memctx.Item{"Wrong": items("x")}}); err == nil {
		t.Fatal("bad invoke succeeded")
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "U", Key: "k", Inputs: map[string][]memctx.Item{"In": items("ok")}})
	if err != nil || string(out["Result"][0].Data) != "OK" {
		t.Fatalf("retry after failure: %v %v", out, err)
	}
}

func TestJournalReplayRestoresReconfigAndDedup(t *testing.T) {
	jrnl := journal.NewMemory()
	p := journaledPlatform(t, jrnl, Options{ComputeEngines: 2, CommEngines: 1})
	p.SetTenantWeight("alice", 7)
	p.SetEngineCounts(3, 2)
	p.SetAdmissionClamp(2, 8)
	in := map[string][]memctx.Item{"In": items("v")}
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Tenant: "alice", Key: "done-key", Inputs: in}); err != nil {
		t.Fatal(err)
	}

	// Second life over the same journal: reconfiguration and completed
	// keys come back; the replayed key dedups to ErrDuplicate (outputs
	// died with the first life).
	p2 := journaledPlatform(t, jrnl, Options{ComputeEngines: 2, CommEngines: 1})
	if w := p2.TenantWeight("alice"); w != 7 {
		t.Fatalf("replayed weight = %d, want 7", w)
	}
	if c, m := p2.EngineCounts(); c != 3 || m != 2 {
		t.Fatalf("replayed engines = (%d, %d), want (3, 2)", c, m)
	}
	if lo, hi := p2.AdmissionClamp(); lo != 2 || hi != 8 {
		t.Fatalf("replayed clamp = (%d, %d), want (2, 8)", lo, hi)
	}
	if p2.JournalReplayed() == 0 {
		t.Fatal("no records replayed")
	}
	before := p2.Stats().Invocations
	if _, err := p2.Invoke(context.Background(), Request{Composition: "U", Tenant: "alice", Key: "done-key", Inputs: in}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("replayed key = %v, want ErrDuplicate", err)
	}
	if got := p2.Stats().Invocations; got != before {
		t.Fatalf("replayed key executed: invocations %d -> %d", before, got)
	}
}

func TestKeyedBatchChunkRecordAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	jrnl, err := journal.OpenFile(path, journal.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := journaledPlatform(t, jrnl, Options{})
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{
			Composition: "U",
			Tenant:      "alice",
			Inputs:      map[string][]memctx.Item{"In": items(fmt.Sprintf("v%d", i))},
			Key:         journal.ChunkKey("chunk-1", i),
		}
	}
	for i, r := range p.InvokeBatch(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	// A contiguous chunk-key run journals ONE chunk record, not four
	// begin/end pairs.
	if got := p.Stats().JournalAppends; got != 1 {
		t.Fatalf("journal appends = %d, want 1 (single chunk record)", got)
	}
	// Whole-chunk retry: answered from the dedup table, zero executions.
	before := p.Stats().Invocations
	for i, r := range p.InvokeBatch(context.Background(), reqs) {
		if r.Err != nil || string(r.Outputs["Result"][0].Data) != fmt.Sprintf("V%d", i) {
			t.Fatalf("retried request %d: %v %v", i, r.Outputs, r.Err)
		}
	}
	st := p.Stats()
	if st.Invocations != before || st.DedupHits != 4 {
		t.Fatalf("retry executed: invocations %d -> %d, hits %d", before, st.Invocations, st.DedupHits)
	}
	p.Shutdown() // closes the journal

	// Third life, same file: the chunk record expands back to all four
	// completed keys.
	jrnl2, err := journal.OpenFile(path, journal.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := journaledPlatform(t, jrnl2, Options{})
	res := p2.InvokeBatch(context.Background(), reqs)
	for i, r := range res {
		if !errors.Is(r.Err, ErrDuplicate) {
			t.Fatalf("replayed chunk request %d = %v, want ErrDuplicate", i, r.Err)
		}
	}
	if got := p2.Stats().Invocations; got != 0 {
		t.Fatalf("replayed chunk re-executed %d invocations", got)
	}
}

func TestMixedKeyedBatch(t *testing.T) {
	p := journaledPlatform(t, journal.NewMemory(), Options{})
	mk := func(key, val string) Request {
		return Request{Composition: "U", Key: key,
			Inputs: map[string][]memctx.Item{"In": items(val)}}
	}
	// Non-contiguous keys + an unkeyed rider: per-request journaling.
	res := p.InvokeBatch(context.Background(), []Request{mk("a", "x"), mk("", "y"), mk("z-9", "z")})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	st := p.Stats()
	if st.JournalAppends != 4 { // 2 keyed requests × (begin + end)
		t.Fatalf("journal appends = %d, want 4", st.JournalAppends)
	}
	// Retrying just the keyed ones dedups; the unkeyed one re-executes.
	res = p.InvokeBatch(context.Background(), []Request{mk("a", "x"), mk("", "y")})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("retry: %v / %v", res[0].Err, res[1].Err)
	}
	if got := p.Stats().DedupHits; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
}
