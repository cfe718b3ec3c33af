package memctx

import (
	"bytes"
	"sync"
	"testing"
)

// leasedSet adopts a one-item set into a fresh context under region
// and returns the set as the function running in that context sees it.
func leasedSet(t *testing.T, region *Region) (*Context, Set) {
	t.Helper()
	c := newCtx(1 << 20)
	if err := c.AdoptInputSetBorrowed(Set{Name: "in", Items: []Item{{Name: "i", Data: []byte("4096")}}}, region); err != nil {
		t.Fatal(err)
	}
	return c, c.ShareInputSets()[0]
}

// TestAllocLeasedBufferIsZeroedOnReuse is the poison test: a leased
// buffer scribbled with 0xAA and returned to the pool at its region's
// final Release must come back all zeros, so no tenant's request ever
// reads bytes another tenant's function wrote.
func TestAllocLeasedBufferIsZeroedOnReuse(t *testing.T) {
	const n = 64 << 10
	reused := 0
	var last *byte
	for round := range 20 {
		region := NewRegion(nil)
		c, in := leasedSet(t, region)
		b := Alloc(in, n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("round %d: leased len/cap = %d/%d, want %d/%d", round, len(b), cap(b), n, n)
		}
		if i := bytes.IndexFunc(b, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("round %d: leased buffer holds a stale byte at %d", round, i)
		}
		if &b[0] == last {
			reused++
		}
		last = &b[0]
		for i := range b {
			b[i] = 0xAA
		}
		Recycle(c)
		region.Release()
	}
	// sync.Pool may drop a buffer (the race detector drops some on
	// purpose, and a GC empties it), but not every one of 19.
	if reused == 0 {
		t.Fatal("no leased buffer came back from the pool: the zeroing went unchecked")
	}
}

// TestAllocWithoutLeaseIsFresh: a set adopted with no region — SDK
// Invoke, the JSON and raw routes, a coordinator — gets a plain zeroed
// buffer, which no later lease is ever handed.
func TestAllocWithoutLeaseIsFresh(t *testing.T) {
	const n = 64 << 10
	_, in := leasedSet(t, nil)
	for _, s := range []Set{in, {Name: "literal"}, in.Clone()} {
		b := Alloc(s, n)
		if len(b) != n || cap(b) != n || bytes.Count(b, []byte{0}) != n {
			t.Fatalf("unleased buffer len/cap %d/%d, or not zeroed", len(b), cap(b))
		}
		for i := range b {
			b[i] = 0xAA
		}
		for range 10 {
			region := NewRegion(nil)
			c, leased := leasedSet(t, region)
			if l := Alloc(leased, n); &l[0] == &b[0] {
				t.Fatal("a lease was handed an unleased buffer")
			}
			Recycle(c)
			region.Release()
		}
	}
}

// TestAllocOutsidePooledClasses: sizes below the smallest class and
// above the largest are made afresh even under a lease; sizes in range
// get the smallest class that holds them.
func TestAllocOutsidePooledClasses(t *testing.T) {
	region := NewRegion(nil)
	c, in := leasedSet(t, region)
	for _, n := range []int{0, 1, leaseMinBytes - 1} {
		if b := Alloc(in, n); len(b) != n || cap(b) != n {
			t.Fatalf("Alloc(%d) len/cap = %d/%d", n, len(b), cap(b))
		}
	}
	if got := len(region.leased); got != 0 {
		t.Fatalf("%d small buffers leased, want 0", got)
	}
	for _, tc := range []struct{ n, class int }{
		{leaseMinBytes, 0}, {leaseMinBytes + 1, 1}, {256 << 10, 6}, {leaseMaxBytes, len(leasePools) - 1},
	} {
		if got := leaseClass(tc.n); got != tc.class {
			t.Fatalf("leaseClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	Recycle(c)
	region.Release()
}

// TestAllocConcurrentLeasesShareOneRegion: the engines running one
// sub-batch's instances lease under the request's one region at once.
// Every buffer must be distinct and keep its writer's bytes until the
// region's final Release, which returns all of them. Run under -race
// (make flake).
func TestAllocConcurrentLeasesShareOneRegion(t *testing.T) {
	const engines, perEngine, n = 8, 16, 8 << 10
	region := NewRegion(nil)
	bufs := make([][][]byte, engines)
	var wg sync.WaitGroup
	for e := range engines {
		c, in := leasedSet(t, region)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perEngine {
				b := Alloc(in, n)
				for j := range b {
					b[j] = byte(e*perEngine + i)
				}
				bufs[e] = append(bufs[e], b)
			}
			Recycle(c)
		}()
	}
	wg.Wait()
	seen := map[*byte]bool{}
	for e, bs := range bufs {
		for i, b := range bs {
			if seen[&b[0]] {
				t.Fatalf("engine %d buffer %d was leased twice", e, i)
			}
			seen[&b[0]] = true
			if want := byte(e*perEngine + i); bytes.Count(b, []byte{want}) != n {
				t.Fatalf("engine %d buffer %d lost its bytes", e, i)
			}
		}
	}
	if got, want := len(region.leased), engines*perEngine; got != want {
		t.Fatalf("region holds %d leased buffers, want %d", got, want)
	}
	region.Release()
	if region.leased != nil {
		t.Fatalf("final Release kept %d leased buffers", len(region.leased))
	}
}

// TestAllocReturnsBuffersAfterTheHook: the region's buffers go back to
// the pool only after its release hook ran, so the hook still finds
// every one of them leased.
func TestAllocReturnsBuffersAfterTheHook(t *testing.T) {
	var held int
	var region *Region
	region = NewRegion(func() { held = len(region.leased) })
	c, in := leasedSet(t, region)
	for i := range 3 {
		Alloc(in, leaseMinBytes<<i)
	}
	Recycle(c)
	region.Release()
	if held != 3 || region.leased != nil {
		t.Fatalf("hook saw %d leased buffers, want 3; after Release %d remain", held, len(region.leased))
	}
}
