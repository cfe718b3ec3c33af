package workloads_test

import (
	"bytes"
	"math/rand"
	"testing"

	"dandelion/internal/workloads"
)

// refMakeBlob is the blob generator's definition: the sequential
// xorshift64 recurrence, one step per byte, with a '\n' closing every
// 64-byte row in place of a step. MakeBlob must return exactly its bytes
// for every length and seed, because clients rebuild fetched blobs
// with MakeBlob and compare them byte for byte.
func refMakeBlob(n int, seed uint64) []byte {
	if seed == 0 {
		seed = 0xcbf29ce484222325
	}
	b := make([]byte, n)
	x := seed
	for i := range b {
		if (i+1)%64 == 0 {
			b[i] = '\n'
			continue
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = ' ' + byte(x%94) // printable, never '\n'
	}
	return b
}

// checkBlob fails t unless MakeBlob(n, seed) equals the reference,
// naming the first differing byte.
func checkBlob(t *testing.T, n int, seed uint64) {
	t.Helper()
	got, want := workloads.MakeBlob(n, seed), refMakeBlob(n, seed)
	if bytes.Equal(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("MakeBlob(%d, %#x): %d bytes, want %d", n, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MakeBlob(%d, %#x): byte %d (row %d, column %d) = %q, want %q",
				n, seed, i, i/64, i%64, got[i], want[i])
		}
	}
}

func TestMakeBlobMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := []uint64{0, 1, ^uint64(0), rng.Uint64(), rng.Uint64()}
	for _, seed := range seeds {
		// Every length up to 1100 bytes: each row boundary, each split
		// of up to 17 rows into lanes, and each tail length.
		for n := 0; n <= 1100; n++ {
			checkBlob(t, n, seed)
		}
		for i := 0; i < 4; i++ {
			checkBlob(t, rng.Intn(1<<22+1), seed)
		}
	}
	// make flake repeats this test twenty times under the race
	// detector, where one 64 MiB blob pair takes seconds.
	if raceEnabled {
		t.Log("MaxBlobBytes case skipped under the race detector")
		return
	}
	checkBlob(t, workloads.MaxBlobBytes, rng.Uint64())
}

// FuzzMakeBlob holds MakeBlob to the reference on lengths up to 2^20.
func FuzzMakeBlob(f *testing.F) {
	f.Add(uint32(0), uint64(0))
	f.Add(uint32(63), uint64(1))
	f.Add(uint32(64*4*3+64+17), ^uint64(0))
	f.Add(uint32(256<<10), uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, n uint32, seed uint64) {
		checkBlob(t, int(n&(1<<20-1)), seed)
	})
}
