package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the file journal's
// decoder: torn writes, flipped CRC bytes, adversarial length
// prefixes. Opening must never panic; replay must stop cleanly at the
// first corrupt record; and the open-time truncation must leave a file
// that reopens with the same record count (truncation is idempotent).
func FuzzJournalReplay(f *testing.F) {
	valid := []byte{FileMagic, FileVersion}
	for i, rec := range []Record{
		{Seq: 1, Kind: KindInvokeBegin, Tenant: "alice", Comp: "C", Key: "k#0", Digest: 7},
		{Seq: 2, Kind: KindReconfig, Op: OpTenantWeight, Tenant: "bob", A: 3},
		{Seq: 3, Kind: KindChunkDone, Key: "base", A: 0, B: 4, Digest: 99},
	} {
		_ = i
		valid = appendFrame(valid, &rec)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                                                                       // torn tail
	f.Add([]byte{FileMagic, FileVersion})                                                             // header only
	f.Add([]byte{FileMagic, FileVersion, 0xFF})                                                       // dangling length byte
	f.Add([]byte{FileMagic, FileVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // huge length
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xA5 // flipped CRC byte
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenFile(path, FileOptions{})
		if err != nil {
			return // bad header: rejected, never panics
		}
		count := 0
		var lastSeq uint64
		if err := j.Replay(func(r Record) error { count++; lastSeq = r.Seq; return nil }); err != nil {
			t.Fatalf("replay errored on truncated journal: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Truncation is idempotent: a second open replays the same
		// prefix and appends continue from its last sequence number.
		j2, err := OpenFile(path, FileOptions{})
		if err != nil {
			t.Fatalf("reopen after truncation: %v", err)
		}
		defer j2.Close()
		count2 := 0
		if err := j2.Replay(func(Record) error { count2++; return nil }); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if count2 != count {
			t.Fatalf("replay count changed across reopen: %d then %d", count, count2)
		}
		if seq, err := j2.Append(Record{Kind: KindInvokeEnd, Key: "after"}); err != nil || seq != lastSeq+1 {
			t.Fatalf("append after fuzz open: seq=%d err=%v, want %d", seq, err, lastSeq+1)
		}
	})
}
