package journal

import (
	"fmt"
	"path/filepath"
	"testing"

	"dandelion/internal/memctx"
)

// BenchmarkJournalAppend measures the append hot path across the two
// implementations, and for the file journal with and without write
// batching (batched appends defer the OS write to Checkpoint).
func BenchmarkJournalAppend(b *testing.B) {
	rec := Record{
		Kind:   KindInvokeEnd,
		Tenant: "alice",
		Comp:   "Inference",
		Key:    "batch-12345#7",
		Digest: 0xDEADBEEFCAFE,
	}
	open := map[string]func(b *testing.B) Journal{
		"memory": func(b *testing.B) Journal { return NewMemory() },
		"file": func(b *testing.B) Journal {
			j, err := OpenFile(filepath.Join(b.TempDir(), "j.wal"), FileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return j
		},
		"file-batched": func(b *testing.B) Journal {
			j, err := OpenFile(filepath.Join(b.TempDir(), "j.wal"), FileOptions{Batched: true})
			if err != nil {
				b.Fatal(err)
			}
			return j
		},
	}
	for name, mk := range open {
		b.Run(name, func(b *testing.B) {
			j := mk(b)
			defer j.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := j.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDedup measures the completed-key table at its default bound,
// full: complete-evict is the steady state of a keyed node, where each
// Complete appends a 260 B reply and evicts the oldest key; hit is a
// duplicate Reserve, which copies the cached reply out and unpacks it.
func BenchmarkDedup(b *testing.B) {
	outs := map[string][]memctx.Item{"Images": {{Name: "img017.qoi", Data: make([]byte, 260)}}}
	keys := make([]string, 2*DefaultDedupEntries)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-31-%d#0", i)
	}
	full := func() *Dedup {
		d := NewDedup(0)
		for _, k := range keys[:DefaultDedupEntries] {
			d.Complete(k, 1, outs)
		}
		return d
	}
	b.Run("complete-evict", func(b *testing.B) {
		d := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[(DefaultDedupEntries+i)%len(keys)]
			if _, _, execute := d.Reserve(k); !execute {
				b.Fatalf("key %s still in the table", k)
			}
			d.Complete(k, 1, outs)
		}
	})
	b.Run("hit", func(b *testing.B) {
		d := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err, _ := d.Reserve(keys[i%DefaultDedupEntries]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
