package memctx

import (
	"sync"
	"testing"
)

func TestRegionReleaseFiresOnceAtZero(t *testing.T) {
	fired := 0
	r := NewRegion(func() { fired++ })
	r.Retain()
	r.Retain()
	r.Release() // borrower 1
	if fired != 0 {
		t.Fatalf("hook fired with %d refs outstanding", r.Refs())
	}
	r.Release() // borrower 2
	r.Release() // creator
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

func TestRegionCreatorMayReleaseBeforeBorrowers(t *testing.T) {
	fired := 0
	r := NewRegion(func() { fired++ })
	r.Retain()  // borrower
	r.Release() // creator drops first
	if fired != 0 {
		t.Fatal("hook fired while a borrower still holds the region")
	}
	r.Release() // last borrower fires the hook
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

func TestRegionOverReleasePanics(t *testing.T) {
	r := NewRegion(nil)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Release()
}

func TestRegionRetainAfterReleasePanics(t *testing.T) {
	r := NewRegion(nil)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("retain on a released region did not panic")
		}
	}()
	r.Retain()
}

func TestRegionNilIsSafe(t *testing.T) {
	var r *Region
	r.Retain()
	r.Release()
	if r.Refs() != 0 {
		t.Fatal("nil region reports refs")
	}
}

func TestRegionConcurrentBorrowers(t *testing.T) {
	fired := 0
	r := NewRegion(func() { fired++ })
	const n = 64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		r.Retain()
		go func() {
			defer done.Done()
			start.Wait()
			r.Release()
		}()
	}
	start.Done()
	done.Wait()
	if fired != 0 {
		t.Fatal("hook fired while the creator still holds the region")
	}
	r.Release()
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

func TestAdoptInputSetBorrowedAliasesAndReleasesOnReset(t *testing.T) {
	released := false
	r := NewRegion(func() { released = true })
	c := newCtx(1 << 20)
	payload := []byte("borrowed bytes")
	s := Set{Name: "in", Items: []Item{{Name: "a", Data: payload}}}
	if err := c.AdoptInputSetBorrowed(s, r); err != nil {
		t.Fatal(err)
	}
	if got := r.Refs(); got != 2 {
		t.Fatalf("refs after adopt = %d, want 2 (creator + context)", got)
	}
	// Aliased, not cloned: mutating the original must show through.
	shared := c.ShareInputSets()
	payload[0] = 'B'
	if string(shared[0].Items[0].Data) != "Borrowed bytes" {
		t.Fatal("adopted payload was cloned, want aliased")
	}
	c.Reset()
	if got := r.Refs(); got != 1 {
		t.Fatalf("refs after Reset = %d, want 1 (creator)", got)
	}
	r.Release()
	if !released {
		t.Fatal("release hook did not fire after last reference dropped")
	}
}

func TestAdoptInputSetBorrowedNilRegion(t *testing.T) {
	c := newCtx(1 << 20)
	s := Set{Name: "in", Items: []Item{{Name: "a", Data: []byte("x")}}}
	if err := c.AdoptInputSetBorrowed(s, nil); err != nil {
		t.Fatal(err)
	}
	c.Reset() // must not panic with no borrowed regions
}

func TestAdoptInputSetBorrowedErrorDoesNotRetain(t *testing.T) {
	r := NewRegion(nil)
	c := newCtx(4)
	s := Set{Name: "in", Items: []Item{{Name: "a", Data: []byte("too big for limit")}}}
	if err := c.AdoptInputSetBorrowed(s, r); err == nil {
		t.Fatal("adopt past the limit succeeded")
	}
	if got := r.Refs(); got != 1 {
		t.Fatalf("refs after failed adopt = %d, want 1", got)
	}
}

func TestRecycleReleasesBorrowedRegions(t *testing.T) {
	released := false
	r := NewRegion(func() { released = true })
	c, _ := NewPooled(1 << 20)
	s := Set{Name: "in", Items: []Item{{Name: "a", Data: []byte("pooled")}}}
	if err := c.AdoptInputSetBorrowed(s, r); err != nil {
		t.Fatal(err)
	}
	Recycle(c)
	if got := r.Refs(); got != 1 {
		t.Fatalf("refs after Recycle = %d, want 1 (creator)", got)
	}
	r.Release()
	if !released {
		t.Fatal("release hook did not fire")
	}
}
