// Borrowed regions: reference-counted ownership of externally pooled
// memory that context inputs alias. The ownership rules (Seal,
// TakeOutputs) track which *context* owns a set; they say nothing about
// the backing buffers. That was fine while every
// payload was an independent heap allocation, but the large-payload
// data plane adopts decoded wire buffers — pooled slabs owned by the
// frontend's decoder — straight into compute contexts. Those slabs
// must not return to their pool while any context (or the response
// encoder) can still reach them, and the recycle must still happen
// exactly once, or the pool leaks.
//
// A Region makes that lifetime explicit. The buffer's owner wraps its
// recycle hook in NewRegion (which hands the creator the first
// reference), every borrower retains the region for as long as it
// aliases the memory, and the hook fires at the final Release — no
// matter whether the creator or the last borrower gets there last.
// Context.AdoptInputSetBorrowed adopts a set as an input without a
// copy; the context retains the region and releases it automatically
// when the aliased inputs are dropped (Reset, or Recycle through the
// pool).
package memctx

import "sync/atomic"

// Region is a reference-counted lease on externally owned memory (for
// example a wire decoder's pooled ingest slabs). The release hook runs
// exactly once, when the last reference is dropped. A nil *Region is
// valid everywhere and means "not borrowed": Retain and Release on nil
// are no-ops, so call sites need no branching.
type Region struct {
	refs    atomic.Int64
	release func()
}

// NewRegion wraps a release hook in a region holding one reference —
// the creator's. The creator calls Release when it no longer needs the
// memory alive (for the frontend: after the response frames that alias
// it are encoded); the hook fires once every borrower has released too.
// A nil release is allowed: the region then only tracks the count.
func NewRegion(release func()) *Region {
	r := &Region{release: release}
	r.refs.Store(1)
	return r
}

// Retain adds a reference. Safe on nil (no-op).
func (r *Region) Retain() {
	if r == nil {
		return
	}
	if r.refs.Add(1) <= 1 {
		panic("memctx: Retain on a released region")
	}
}

// Release drops a reference, firing the release hook when the count
// reaches zero. Safe on nil (no-op). Over-releasing panics: a double
// release means two holders both believed they owned the final
// reference, which is exactly the aliasing bug Region exists to catch.
func (r *Region) Release() {
	if r == nil {
		return
	}
	n := r.refs.Add(-1)
	if n < 0 {
		panic("memctx: Release on an already-released region")
	}
	if n == 0 && r.release != nil {
		r.release()
	}
}

// Refs reports the current reference count (0 on nil), for gauges and
// tests.
func (r *Region) Refs() int64 {
	if r == nil {
		return 0
	}
	return r.refs.Load()
}

// AdoptInputSetBorrowed installs an input set without cloning item
// payloads (see adoptInput for the checks and the charge), for a set
// whose payloads alias memory owned by region: the context retains the
// region until its inputs are dropped — Reset, or Recycle through the
// context pool — so the backing memory cannot be recycled out from
// under the function. A nil region means the set is not borrowed: the
// context takes ownership of (or shares read-only access to) its
// payloads.
func (c *Context) AdoptInputSetBorrowed(s Set, region *Region) error {
	if err := c.adoptInput(s); err != nil {
		return err
	}
	if region != nil {
		region.Retain()
		c.mu.Lock()
		c.borrowed = append(c.borrowed, region)
		c.mu.Unlock()
	}
	return nil
}

// dropBorrowed releases every region the context retained, outside
// c.mu: release hooks are arbitrary caller code (buffer-pool recycles)
// and must not run under the context lock.
func (c *Context) dropBorrowed() {
	c.mu.Lock()
	regions := c.borrowed
	c.borrowed = c.borrowed[:0]
	c.mu.Unlock()
	for i, r := range regions {
		regions[i] = nil
		r.Release()
	}
}
