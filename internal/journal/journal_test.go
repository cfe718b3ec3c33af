package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dandelion/internal/memctx"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Kind:   KindInvokeEnd,
			Tenant: "alice",
			Comp:   "Comp",
			Key:    fmt.Sprintf("k-%d", i),
			A:      int64(i % 2),
			B:      int64(-i),
			Digest: uint64(i) * 0x9E3779B97F4A7C15,
		}
	}
	recs[0].Kind, recs[0].Op = KindReconfig, OpTenantWeight
	return recs
}

func replayAll(t *testing.T, j Journal) []Record {
	t.Helper()
	var got []Record
	if err := j.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	impls := map[string]func(t *testing.T) Journal{
		"memory": func(t *testing.T) Journal { return NewMemory() },
		"file": func(t *testing.T) Journal {
			j, err := OpenFile(filepath.Join(t.TempDir(), "j.wal"), FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
	}
	for name, open := range impls {
		t.Run(name, func(t *testing.T) {
			j := open(t)
			defer j.Close()
			want := testRecords(17)
			for i, r := range want {
				seq, err := j.Append(r)
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if seq != uint64(i+1) {
					t.Fatalf("append %d: seq = %d, want %d", i, seq, i+1)
				}
			}
			got := replayAll(t, j)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i, r := range got {
				want[i].Seq = uint64(i + 1)
				if r != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
				}
			}
		})
	}
}

func TestFileReopenContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(5) {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	j2, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	seq, err := j2.Append(Record{Kind: KindInvokeBegin, Key: "next"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("seq after reopen = %d, want 6", seq)
	}
	if got := replayAll(t, j2); len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(4) {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-write: a dangling half record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := appendFrame(nil, &Record{Seq: 5, Kind: KindInvokeEnd, Key: "torn"})
	if _, err := f.Write(whole[:len(whole)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(got))
	}
	if seq, err := j2.Append(Record{Kind: KindInvokeBegin}); err != nil || seq != 5 {
		t.Fatalf("append after truncation: seq=%d err=%v, want 5 nil", seq, err)
	}
}

func TestFileFlippedCRCStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(3) {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the last record's CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 2 {
		t.Fatalf("replayed %d records with corrupt third, want 2", len(got))
	}
}

func TestFileBadHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte{0x00, 0x99, 1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, FileOptions{}); err == nil {
		t.Fatal("OpenFile accepted a bad header")
	}
}

func TestBatchedCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := OpenFile(path, FileOptions{Batched: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(8) {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second handle sees everything up to the checkpoint.
	j2, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 8 {
		t.Fatalf("replayed %d records after checkpoint, want 8", len(got))
	}
	j.Close()
}

func TestReplayStopsOnCallbackError(t *testing.T) {
	j := NewMemory()
	for _, r := range testRecords(5) {
		j.Append(r)
	}
	boom := errors.New("boom")
	calls := 0
	err := j.Replay(func(Record) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("replay: calls=%d err=%v, want 1 boom", calls, err)
	}
}

func TestChunkShape(t *testing.T) {
	base, lo, ok := ChunkShape([]string{"b-7#3", "b-7#4", "b-7#5"})
	if !ok || base != "b-7" || lo != 3 {
		t.Fatalf("ChunkShape = %q %d %v, want b-7 3 true", base, lo, ok)
	}
	for _, bad := range [][]string{
		nil,
		{"nokey"},
		{"a#0", "a#2"},
		{"a#0", "b#1"},
		{"a#0", ""},
		{"#0"},
		{"a#-1"},
	} {
		if _, _, ok := ChunkShape(bad); ok {
			t.Fatalf("ChunkShape(%q) accepted", bad)
		}
	}
	if k := ChunkKey("b-7", 3); k != "b-7#3" {
		t.Fatalf("ChunkKey = %q", k)
	}
}

func TestDigestSets(t *testing.T) {
	sets := func() map[string][]memctx.Item {
		return map[string][]memctx.Item{
			"In":  {{Name: "x", Data: []byte("hello")}},
			"Aux": {{Name: "y", Key: "k", Data: []byte("world")}},
		}
	}
	a, b := DigestSets(sets()), DigestSets(sets())
	if a != b {
		t.Fatalf("digest not deterministic: %x != %x", a, b)
	}
	mut := sets()
	mut["In"][0].Data = []byte("hellO")
	if DigestSets(mut) == a {
		t.Fatal("digest ignores payload changes")
	}
	if DigestOutcome(sets(), "") == DigestOutcome(sets(), "err") {
		t.Fatal("outcome digest ignores the error message")
	}
}

func TestDedupLifecycle(t *testing.T) {
	d := NewDedup(0)
	outs := map[string][]memctx.Item{"Out": {{Name: "r", Data: []byte("v")}}}

	// Fresh key executes.
	if _, _, execute := d.Reserve("k1"); !execute {
		t.Fatal("fresh key did not reserve")
	}
	// Same key while in flight: ErrInFlight.
	if _, err, execute := d.Reserve("k1"); execute || !errors.Is(err, ErrInFlight) {
		t.Fatalf("in-flight reserve: execute=%v err=%v", execute, err)
	}
	d.Complete("k1", 42, outs)
	// Completed key replays cached outputs.
	got, err, execute := d.Reserve("k1")
	if execute || err != nil || len(got["Out"]) != 1 {
		t.Fatalf("completed reserve: execute=%v err=%v outs=%v", execute, err, got)
	}
	// Failed execution releases the key for retry.
	if _, _, execute := d.Reserve("k2"); !execute {
		t.Fatal("k2 did not reserve")
	}
	d.Release("k2")
	if _, _, execute := d.Reserve("k2"); !execute {
		t.Fatal("released key did not re-reserve")
	}
	d.Release("k2")
	// Replayed keys answer ErrDuplicate (no cached outputs).
	d.MarkReplayed("k3", 7)
	if _, err, execute := d.Reserve("k3"); execute || !errors.Is(err, ErrDuplicate) {
		t.Fatalf("replayed reserve: execute=%v err=%v", execute, err)
	}
	if d.Hits() != 3 {
		t.Fatalf("hits = %d, want 3", d.Hits())
	}
	if dg, done := d.Lookup("k3"); !done || dg != 7 {
		t.Fatalf("lookup k3 = %d %v", dg, done)
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2", d.Len())
	}
}

// TestDedupOwnsCachedOutputs: Complete keeps its own copy, so a caller
// that reuses its buffer afterwards cannot change the cached reply; an
// oversized outcome keeps only its digest and copies nothing.
func TestDedupOwnsCachedOutputs(t *testing.T) {
	d := NewDedup(0)
	buf := []byte("original")
	d.Reserve("k")
	d.Complete("k", 1, map[string][]memctx.Item{
		"Out":   {{Name: "a", Data: buf[:4]}, {Name: "b", Data: buf[4:]}},
		"Empty": {{Name: "nil"}},
	})
	copy(buf, "XXXXXXXX")
	got, err, execute := d.Reserve("k")
	if execute || err != nil {
		t.Fatalf("reserve: execute=%v err=%v", execute, err)
	}
	if a, b := string(got["Out"][0].Data), string(got["Out"][1].Data); a != "orig" || b != "inal" {
		t.Fatalf("cached reply = %q %q, want \"orig\" \"inal\"", a, b)
	}
	// Items are capped: growing one cached payload cannot overwrite the next.
	_ = append(got["Out"][0].Data, '!')
	if b := string(got["Out"][1].Data); b != "inal" {
		t.Fatalf("append bled into neighbour: %q", b)
	}
	if got["Empty"][0].Data != nil {
		t.Fatalf("nil payload cached as %q", got["Empty"][0].Data)
	}
	if sets, bytes := d.Copied(); sets != 2 || bytes != 8 {
		t.Fatalf("copied = %d sets %d bytes, want 2 8", sets, bytes)
	}

	d.Reserve("big")
	d.Complete("big", 2, map[string][]memctx.Item{"Out": {{Data: make([]byte, maxCachedOutputBytes+1)}}})
	if _, err, _ := d.Reserve("big"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("oversized reserve err = %v, want ErrDuplicate", err)
	}
	if sets, bytes := d.Copied(); sets != 2 || bytes != 8 {
		t.Fatalf("oversized outcome copied: %d sets %d bytes", sets, bytes)
	}
}

// TestDedupPackedRoundTrip: a cached reply unpacks to exactly what was
// completed — several sets and items, Item.Key, a nil payload distinct
// from an empty one, a payload past one uvarint byte — from one
// exact-size buffer.
func TestDedupPackedRoundTrip(t *testing.T) {
	for name, outs := range map[string]map[string][]memctx.Item{
		"multi": {
			"Out": {
				{Name: "a", Key: "k/a", Data: []byte("alpha")},
				{Name: "nil"},
				{Name: "empty", Data: []byte{}},
				{Name: "big", Key: strings.Repeat("κ", 100), Data: bytes.Repeat([]byte{7}, 300)},
			},
			"Log":   {{Name: "line", Data: []byte("ok\n")}},
			"":      {{Data: []byte("unnamed set")}},
			"Empty": {},
		},
		"no sets": {},
	} {
		p := packOutputs(outs)
		if len(p) != cap(p) {
			t.Fatalf("%s: packed into %d bytes of a %d-byte buffer, want exact size", name, len(p), cap(p))
		}
		got := unpackOutputs(p)
		if !reflect.DeepEqual(got, outs) {
			t.Fatalf("%s: unpacked %#v, want %#v", name, got, outs)
		}
		// Payloads are capped: growing one cannot write into the
		// packed buffer the next duplicate unpacks.
		for _, items := range got {
			for _, it := range items {
				_ = append(it.Data, 0xff)
			}
		}
		if again := unpackOutputs(p); !reflect.DeepEqual(again, outs) {
			t.Fatalf("%s: appends to a reply changed the cached copy: %#v", name, again)
		}
	}
}

// TestDedupBytesPerKey: every completed key in the window stays
// resident, so the table's bytes per key — its live heap (index and
// position ring) plus the log's off-heap chunks (record header, key
// and packed reply) — bound how peak memory follows keyed throughput.
// For a 260-byte reply they must stay within 384 bytes.
func TestDedupBytesPerKey(t *testing.T) {
	const keys, limit = 20000, 384
	payload := make([]byte, 260)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDedup(0)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("bench-31-%d#0", i)
		d.Reserve(k)
		d.Complete(k, uint64(i), map[string][]memctx.Item{"Images": {{Name: "img017.qoi", Data: payload}}})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / keys
	log := float64(d.log.offHeapBytes()) / keys
	runtime.KeepAlive(d)
	if heap+log > limit {
		t.Fatalf("%.0f bytes per completed key (%.0f of live heap, %.0f of log), want <= %d", heap+log, heap, log, limit)
	}
	t.Logf("%.0f bytes per completed key: %.0f of live heap, %.0f of log", heap+log, heap, log)
}

func TestDedupEviction(t *testing.T) {
	d := NewDedup(4)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		d.Reserve(k)
		d.Complete(k, uint64(i), nil)
	}
	if d.Len() != 4 {
		t.Fatalf("len = %d, want 4", d.Len())
	}
	if _, done := d.Lookup("k0"); done {
		t.Fatal("oldest key survived eviction")
	}
	if _, done := d.Lookup("k9"); !done {
		t.Fatal("newest key evicted")
	}
}

// TestConcurrentAppendReplay is the race property test: N goroutines
// append while a reader replays past a checkpoint and another thread
// hammers the dedup table. Assert gapless sequence numbers and
// consistent dedup lookups; the -race run in `make race` watches the
// rest.
func TestConcurrentAppendReplay(t *testing.T) {
	for name, open := range map[string]func() (Journal, error){
		"memory": func() (Journal, error) { return NewMemory(), nil },
		"file": func() (Journal, error) {
			return OpenFile(filepath.Join(t.TempDir(), "j.wal"), FileOptions{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			j, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			d := NewDedup(0)

			const writers, perWriter = 8, 50
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						key := fmt.Sprintf("w%d-%d", w, i)
						if _, _, execute := d.Reserve(key); !execute {
							t.Errorf("key %s double-reserved", key)
							return
						}
						// Complete before journaling so the replay-side
						// invariant holds: every journaled key is
						// visible in the dedup table.
						d.Complete(key, uint64(i), nil)
						if _, err := j.Append(Record{Kind: KindInvokeEnd, Key: key}); err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(w)
			}
			// Concurrent readers: replay a consistent prefix while
			// appends continue, checking gapless sequence numbers and
			// that every replayed completion is visible in the table.
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = j.Checkpoint()
					var last uint64
					err := j.Replay(func(rec Record) error {
						if rec.Seq != last+1 {
							return fmt.Errorf("gap: seq %d after %d", rec.Seq, last)
						}
						last = rec.Seq
						if _, done := d.Lookup(rec.Key); !done {
							return fmt.Errorf("journaled key %q missing from dedup", rec.Key)
						}
						return nil
					})
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			var last uint64
			if err := j.Replay(func(rec Record) error {
				if rec.Seq != last+1 {
					return fmt.Errorf("gap: seq %d after %d", rec.Seq, last)
				}
				last = rec.Seq
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if last != writers*perWriter {
				t.Fatalf("final seq = %d, want %d", last, writers*perWriter)
			}
			if d.Hits() != 0 {
				t.Fatalf("unexpected dedup hits: %d", d.Hits())
			}
		})
	}
}
