// Context pooling. The invoke hot path used to allocate a fresh
// Context (plus its set slices) for every function instance; under
// heavy traffic that allocation — and the GC pressure behind it — is
// pure overhead, since a Reset context is indistinguishable from a new
// one. NewPooled/Recycle put contexts through a sync.Pool instead:
// Recycle resets the context (dropping every set descriptor and payload
// reference, and releasing borrowed regions) and parks it; NewPooled
// hands it back out with its warm input slice intact. (The output slice
// leaves with TakeOutputs: the caller owns it.)
package memctx

import "sync"

var ctxPool sync.Pool

// NewPooled returns a context bounded at limit bytes (a non-positive
// limit means "no explicit bound" and clamps to DefaultLimit), drawing
// from the recycle
// pool when possible. reused reports whether the context came from the
// pool — its backing allocations are warm — or had to be allocated
// fresh; callers feed the distinction to their pool-efficiency gauges.
//
// A pooled context is observably identical to a new one: no inputs, no
// outputs, no borrowed regions, unsealed and zero committed bytes.
func NewPooled(limit int) (c *Context, reused bool) {
	if limit <= 0 {
		limit = DefaultLimit
	}
	if v := ctxPool.Get(); v != nil {
		c = v.(*Context)
		c.limit = limit
		return c, true
	}
	return &Context{limit: limit}, false
}

// Recycle resets c and returns it to the pool for a future NewPooled.
// The caller must be the context's sole owner: no goroutine may use c
// (or rely on slices returned by its accessors aliasing it) after
// Recycle. Sets previously moved out via TakeOutputs are unaffected —
// the slice that carried them was relinquished by the context at
// handoff.
func Recycle(c *Context) {
	if c == nil {
		return
	}
	c.Reset()
	ctxPool.Put(c)
}
