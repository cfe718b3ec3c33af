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

// blobPaths are the fills held to the reference: MakeBlob, which takes
// the 16-lane AVX2 fill on a CPU that has it, and the 4-lane Go fill
// every other machine runs.
var blobPaths = []struct {
	name string
	gen  func(n int, seed uint64) []byte
}{
	{"MakeBlob", workloads.MakeBlob},
	{"portable", workloads.MakeBlobPortable},
}

// checkBlob fails t unless gen(len(want), seed) equals want, the
// reference's bytes, naming the first differing byte.
func checkBlob(t *testing.T, gen func(int, uint64) []byte, seed uint64, want []byte) {
	t.Helper()
	n := len(want)
	got := gen(n, seed)
	if bytes.Equal(got, want) {
		return
	}
	if len(got) != n {
		t.Fatalf("n=%d seed=%#x: %d bytes, want %d", n, seed, len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("n=%d seed=%#x: byte %d (row %d, column %d) = %q, want %q",
				n, seed, i, i/64, i%64, got[i], want[i])
		}
	}
}

func TestMakeBlobMatchesReference(t *testing.T) {
	t.Logf("MakeBlob takes the AVX2 fill: %v", workloads.HasAVX2)
	// The recurrence is sequential, so a shorter blob is a prefix of a
	// longer one: one reference per seed serves every length.
	const refLen = 1 << 22
	rng := rand.New(rand.NewSource(1))
	seeds := []uint64{0, 1, ^uint64(0), rng.Uint64(), rng.Uint64()}
	refs := make([][]byte, len(seeds))
	lens := make([][]int, len(seeds))
	for i, seed := range seeds {
		refs[i] = refMakeBlob(refLen, seed)
		// Every length below 3 rows for each of 16 lanes: each row
		// boundary, each split of up to two rows per lane with every
		// count of leftover rows, and each tail length.
		for n := 0; n < 3*16*64; n++ {
			lens[i] = append(lens[i], n)
		}
		for range 4 {
			lens[i] = append(lens[i], rng.Intn(refLen+1))
		}
	}
	// make flake repeats this test twenty times under the race
	// detector, where one 64 MiB blob pair takes seconds.
	var maxSeed uint64
	var maxRef []byte
	if raceEnabled {
		t.Log("MaxBlobBytes case skipped under the race detector")
	} else {
		maxSeed = rng.Uint64()
		maxRef = refMakeBlob(workloads.MaxBlobBytes, maxSeed)
	}
	for _, p := range blobPaths {
		t.Run(p.name, func(t *testing.T) {
			for i, seed := range seeds {
				for _, n := range lens[i] {
					checkBlob(t, p.gen, seed, refs[i][:n])
				}
			}
			if maxRef != nil {
				checkBlob(t, p.gen, maxSeed, maxRef)
			}
		})
	}
}

// FuzzMakeBlob holds both fills to the reference on lengths up to 2^20.
func FuzzMakeBlob(f *testing.F) {
	f.Add(uint32(0), uint64(0))
	f.Add(uint32(63), uint64(1))
	f.Add(uint32(64*4*3+64+17), ^uint64(0))
	f.Add(uint32(64*16*3+64*15+63), uint64(2))
	f.Add(uint32(256<<10), uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, n uint32, seed uint64) {
		want := refMakeBlob(int(n&(1<<20-1)), seed)
		for _, p := range blobPaths {
			checkBlob(t, p.gen, seed, want)
		}
	})
}
