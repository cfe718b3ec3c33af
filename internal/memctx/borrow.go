// Borrowed regions: reference-counted ownership of externally pooled
// memory that context inputs alias, and of the output buffers leased
// under it. The ownership rules (Seal, TakeOutputs) track which
// *context* owns a set; they say nothing about the backing buffers.
// That was fine while every payload was an independent heap
// allocation, but the large-payload data plane adopts decoded wire
// buffers — pooled slabs owned by the frontend's decoder — straight
// into compute contexts. Those slabs must not return to their pool
// while any context (or the response encoder) can still reach them,
// and the recycle must still happen exactly once, or the pool leaks.
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
//
// The same lifetime serves output memory. A set adopted under a region
// remembers it, and Alloc gives a function reading that set a zeroed
// output buffer from a size-classed pool, owned by the region: the
// buffer returns to the pool at the region's final Release, after the
// hook. The frontend's binary batch route issues that release only
// once the result frames are written, so a generated response costs no
// fresh allocation in steady state. Outputs already live only until
// the request's Borrow is released (they may alias inputs), so a
// leased output asks nothing more of a caller.
package memctx

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Region is a reference-counted lease on externally owned memory (for
// example a wire decoder's pooled ingest slabs) and on the output
// buffers Alloc leases under it. The release hook runs exactly once,
// when the last reference is dropped; the leased buffers then return
// to their pool. A nil *Region is valid everywhere and means "not
// borrowed": Retain and Release on nil are no-ops, so call sites need
// no branching.
type Region struct {
	refs    atomic.Int64
	release func()

	mu     sync.Mutex
	leased []*[]byte // Alloc's pooled buffers, returned at the final Release
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
	if n != 0 {
		return
	}
	if r.release != nil {
		r.release()
	}
	// The count reached zero, so no holder can Alloc or read a leased
	// buffer any more; the lock only orders this with their appends.
	r.mu.Lock()
	leased := r.leased
	r.leased = nil
	r.mu.Unlock()
	for _, b := range leased {
		leasePools[leaseClass(cap(*b))].Put(b)
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
// under the function. The installed set remembers the region, so
// Alloc can lease the function output buffers under it. A nil region
// means the set is not borrowed: the context takes ownership of (or
// shares read-only access to) its payloads.
func (c *Context) AdoptInputSetBorrowed(s Set, region *Region) error {
	s.lease = region
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

// Leased buffers come in power-of-two size classes from leaseMinBytes
// to leaseMaxBytes; Alloc makes anything outside that range afresh.
const (
	leaseMinShift = 12 // 4 KiB: smaller buffers are cheaper to make
	leaseMaxShift = 26 // 64 MiB: the largest blob a served function generates
	leaseMinBytes = 1 << leaseMinShift
	leaseMaxBytes = 1 << leaseMaxShift
)

// leasePools[i] holds buffers of capacity leaseMinBytes<<i.
var leasePools [leaseMaxShift - leaseMinShift + 1]sync.Pool

// leaseClass maps a size in [1, leaseMaxBytes] to the index of the
// smallest class that holds it.
func leaseClass(n int) int {
	return max(bits.Len(uint(n-1)), leaseMinShift) - leaseMinShift
}

// Alloc returns a zeroed n-byte buffer for an output a Go function
// derives from its input set in. When in was adopted under a region
// (AdoptInputSetBorrowed with a non-nil region), the buffer comes from
// a size-classed pool and the region owns it: it stays valid until the
// region's final Release, which returns it to the pool — the lifetime
// the GoFunc contract already gives outputs that alias inputs. A set
// with no lease (an SDK Invoke, the JSON and raw routes, a coordinator)
// gets a plain make that never enters the pool, as does a buffer
// outside the pooled classes. The buffer's capacity is n, so appending
// to it cannot reach pooled bytes beyond it. Safe for concurrent use.
func Alloc(in Set, n int) []byte {
	r := in.lease
	if r == nil || n < leaseMinBytes || n > leaseMaxBytes {
		return make([]byte, n)
	}
	if r.refs.Load() <= 0 {
		panic("memctx: Alloc under a released region")
	}
	c := leaseClass(n)
	b, _ := leasePools[c].Get().(*[]byte)
	if b == nil {
		buf := make([]byte, leaseMinBytes<<c)
		b = &buf
	} else {
		clear((*b)[:n])
	}
	r.mu.Lock()
	r.leased = append(r.leased, b)
	r.mu.Unlock()
	return (*b)[:n:n]
}
