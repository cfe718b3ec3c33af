package memctx

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// dirty runs one messy invocation lifecycle on c: input installs in
// every form (clone, adopt, borrow), outputs, seal, and a take — the
// state a recycle must not leak. It returns the borrowed region, which
// the context still holds.
func dirty(t *testing.T, c *Context, tag byte) *Region {
	t.Helper()
	payload := bytes.Repeat([]byte{tag}, 64)
	if err := c.AddInputSet(Set{Name: "in", Items: []Item{{Name: "a", Data: payload}}}); err != nil {
		t.Fatalf("AddInputSet: %v", err)
	}
	if err := c.AdoptInputSetBorrowed(Set{Name: "shared", Items: []Item{{Name: "b", Data: payload}}}, nil); err != nil {
		t.Fatalf("AdoptInputSetBorrowed: %v", err)
	}
	region := NewRegion(nil)
	if err := c.AdoptInputSetBorrowed(Set{Name: "borrowed", Items: []Item{{Name: "c", Data: payload}}}, region); err != nil {
		t.Fatalf("AdoptInputSetBorrowed: %v", err)
	}
	err := c.SetOutputs([]Set{
		{Name: "out", Items: []Item{{Name: "o", Data: payload}}},
		{Name: "kept", Items: []Item{{Name: "k", Data: payload}}},
	})
	if err != nil {
		t.Fatalf("SetOutputs: %v", err)
	}
	c.Seal()
	if taken, err := c.TakeOutputs(); err != nil || len(taken) != 2 {
		t.Fatalf("TakeOutputs = %d sets, %v", len(taken), err)
	}
	if got := region.Refs(); got != 2 {
		t.Fatalf("borrowed region refs = %d, want 2 (creator + context)", got)
	}
	return region
}

// assertPristine fails unless c is observably identical to a new context:
// no inputs, no outputs, unsealed, nothing committed, and the region
// the previous cycle borrowed released.
func assertPristine(t *testing.T, c *Context, round int, borrowed *Region) {
	t.Helper()
	if got := c.ShareInputSets(); len(got) != 0 {
		t.Fatalf("round %d: recycled context leaked %d input sets: %v", round, len(got), got)
	}
	if got := borrowed.Refs(); got > 1 {
		t.Fatalf("round %d: recycled context still holds its borrowed region (refs %d)", round, got)
	}
	if got := c.CommittedBytes(); got != 0 {
		t.Fatalf("round %d: recycled context has %d committed bytes", round, got)
	}
	if _, err := c.TakeOutputs(); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("round %d: recycled context still sealed (TakeOutputs err = %v)", round, err)
	}
	c.Seal()
	if got, _ := c.TakeOutputs(); len(got) != 0 {
		t.Fatalf("round %d: recycled context leaked %d output sets", round, len(got))
	}
	c.Reset()
}

// TestPooledContextReuseIsClean is the reuse-after-Reset property test:
// however a context was dirtied — inputs, outputs, seals, takes,
// borrowed regions — the context NewPooled hands out next is
// indistinguishable from a brand-new one.
func TestPooledContextReuseIsClean(t *testing.T) {
	const rounds = 50
	var borrowed *Region
	for round := 0; round < rounds; round++ {
		c, _ := NewPooled(1 << 20)
		assertPristine(t, c, round, borrowed)
		borrowed = dirty(t, c, byte(round+1))
		Recycle(c)
	}
}

// TestPooledContextIdentityReuse pins the pooling actually happening:
// recycling then re-acquiring on one goroutine hands the same context
// back (sync.Pool keeps a per-P private slot), with its input slice
// retained but cleared.
func TestPooledContextIdentityReuse(t *testing.T) {
	c1, _ := NewPooled(1 << 20)
	borrowed := dirty(t, c1, 0xAB)
	Recycle(c1)
	c2, reused := NewPooled(1 << 20)
	if c2 == c1 {
		if !reused {
			t.Fatalf("same context returned but reused = false")
		}
		if cap(c2.inputs) == 0 {
			t.Fatalf("recycled context lost its input slice")
		}
		assertPristine(t, c2, 0, borrowed)
	} else {
		// sync.Pool gives no hard guarantee (GC may intervene); the
		// cleanliness property is covered above either way.
		t.Skip("pool did not return the recycled context (GC race)")
	}
}

// TestPooledContextLimitRebind: a context recycled under one limit and
// reacquired under a smaller one must enforce the new limit.
func TestPooledContextLimitRebind(t *testing.T) {
	c1, _ := NewPooled(1 << 20)
	if err := c1.AddInputSet(Set{Name: "in", Items: []Item{{Data: make([]byte, 4096)}}}); err != nil {
		t.Fatalf("AddInputSet: %v", err)
	}
	Recycle(c1)
	c2, _ := NewPooled(64)
	if got := c2.limit; got != 64 {
		t.Fatalf("limit = %d, want 64", got)
	}
	if err := c2.AddInputSet(Set{Name: "in", Items: []Item{{Data: make([]byte, 65)}}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("input past rebound limit err = %v, want ErrOutOfBounds", err)
	}
	if err := c2.AddInputSet(Set{Name: "in", Items: []Item{{Data: make([]byte, 64)}}}); err != nil {
		t.Fatalf("input within rebound limit: %v", err)
	}
}

// TestResetClearsHandoffMarksForChunkReuse mirrors the batch chunk
// path: Reset between instances must let the next instance install and
// take output sets under names the previous instance took.
func TestResetClearsHandoffMarksForChunkReuse(t *testing.T) {
	c := newCtx(1 << 16)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("o%d", i%2) // collide names across instances
		if err := c.SetOutputs([]Set{{Name: name, Items: []Item{{Name: "x", Data: []byte{byte(i)}}}}}); err != nil {
			t.Fatalf("instance %d: SetOutputs: %v", i, err)
		}
		c.Seal()
		taken, err := c.TakeOutputs()
		if err != nil || len(taken) != 1 {
			t.Fatalf("instance %d: TakeOutputs = %v, %v", i, taken, err)
		}
		if got := taken[0].Items[0].Data[0]; got != byte(i) {
			t.Fatalf("instance %d: took payload %d", i, got)
		}
		c.Reset()
	}
}
