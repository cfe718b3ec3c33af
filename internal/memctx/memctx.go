// Package memctx implements Dandelion's memory contexts (§5 of the
// paper): bounded, contiguous memory regions that the dispatcher prepares
// for each function instance before it runs.
//
// A context carries the function's input sets and items, provides a byte
// region the sandboxed code computes over, and is harvested for output
// sets after execution. Contexts expose offset read/write primitives and
// data-transfer methods between contexts, so different isolation backends
// can specialize the copy path (or avoid the copy entirely via Handoff,
// the zero-copy variant sketched as future work in §6.1).
package memctx

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common context errors.
var (
	ErrOutOfBounds  = errors.New("memctx: access out of context bounds")
	ErrSealed       = errors.New("memctx: context is sealed")
	ErrNoSuchSet    = errors.New("memctx: no such set")
	ErrNoSuchItem   = errors.New("memctx: no such item")
	ErrDuplicateSet = errors.New("memctx: duplicate set name")
	// ErrNotSealed is returned by move operations (HandoffOutput,
	// TakeOutputs) on a context that has not been sealed yet: ownership
	// may only move out of an immutable snapshot.
	ErrNotSealed = errors.New("memctx: handoff requires a sealed source context")
	// ErrHandedOff is returned when an output set whose ownership has
	// already moved to another context is read or handed off again. It
	// wraps ErrNoSuchSet — the set is gone from this context — but lets
	// callers distinguish "never existed" from "moved away".
	ErrHandedOff = fmt.Errorf("%w (ownership handed off)", ErrNoSuchSet)
)

// Item is one data item within a set: a named, optionally keyed blob.
// Keys are user-assigned and only used for `key`-distributed edges (§4.1).
type Item struct {
	Name string
	Key  string
	Data []byte
}

// Clone returns a deep copy of the item.
func (it Item) Clone() Item {
	d := make([]byte, len(it.Data))
	copy(d, it.Data)
	return Item{Name: it.Name, Key: it.Key, Data: d}
}

// Set is a named collection of items, the unit of dataflow between
// functions: every edge in a composition maps one output set to one
// input set.
type Set struct {
	Name  string
	Items []Item
}

// Clone returns a deep copy of the set. All item payloads are copied
// into one backing buffer sized up front from TotalBytes, so cloning a
// set costs two allocations regardless of item count (items are capped
// with full slice expressions, so appending to one cloned payload can
// never bleed into its neighbor).
func (s Set) Clone() Set {
	items := make([]Item, len(s.Items))
	buf := make([]byte, s.TotalBytes())
	off := 0
	for i, it := range s.Items {
		end := off + len(it.Data)
		d := buf[off:end:end]
		copy(d, it.Data)
		items[i] = Item{Name: it.Name, Key: it.Key, Data: d}
		off = end
	}
	return Set{Name: s.Name, Items: items}
}

// TotalBytes reports the summed payload size of all items.
func (s Set) TotalBytes() int {
	n := 0
	for _, it := range s.Items {
		n += len(it.Data)
	}
	return n
}

// Context is a bounded memory region plus the set/item descriptors the
// platform exchanges with the sandboxed function. The maximum size is set
// when the function is registered (like AWS Lambda memory sizing); the
// backing region grows lazily up to that bound, modelling demand paging
// of reserved virtual memory.
type Context struct {
	mu     sync.Mutex
	limit  int
	region []byte
	inputs []Set
	output []Set
	sealed bool
	// handed names the output sets whose ownership has moved to another
	// context (HandoffOutput) or to the dispatcher (TakeOutputs). A
	// handed-off set cannot be read or handed off a second time: the
	// zero-copy data plane relies on unique ownership so a payload is
	// never aliased by two writable holders or released twice.
	handed map[string]bool
	// committed tracks the high-water mark of touched bytes, the number
	// the memory-accounting experiments (Figures 1/10) charge for.
	committed int
	// regionHi is the high-water mark of region bytes actually written
	// this cycle. Bytes at or beyond regionHi are always zero (fresh
	// allocations start zeroed; Reset re-zeroes [0, regionHi)), so Reset
	// only pays for what the instance touched, not for the whole grown
	// region a pooled or chunk-reused context carries.
	regionHi int
	// borrowed holds the Regions retained via AdoptInputSetBorrowed:
	// external pooled memory the inputs alias. Reset releases them (see
	// borrow.go) after the aliasing descriptors are dropped.
	borrowed []*Region
}

// DefaultLimit is the context bound used when the caller gives none:
// 256 MiB, matching common FaaS memory-sizing defaults.
const DefaultLimit = 256 << 20

// New creates a context bounded at limit bytes. A non-positive limit
// means "no explicit bound" and is clamped to DefaultLimit.
func New(limit int) *Context {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Context{limit: limit}
}

// Limit reports the maximum size of the context in bytes.
func (c *Context) Limit() int { return c.limit }

// CommittedBytes reports the high-water mark of bytes actually backed,
// i.e. what the host has committed for this context.
func (c *Context) CommittedBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed
}

// ensure grows the backing region to cover [0, n). Callers hold c.mu.
func (c *Context) ensure(n int) error {
	if n > c.limit {
		return fmt.Errorf("%w: need %d bytes, limit %d", ErrOutOfBounds, n, c.limit)
	}
	if n > len(c.region) {
		grown := make([]byte, n)
		copy(grown, c.region)
		c.region = grown
	}
	if n > c.committed {
		c.committed = n
	}
	if n > c.regionHi {
		c.regionHi = n
	}
	return nil
}

// WriteAt copies p into the region at off, growing the committed region
// on demand (demand paging). It fails if the write would exceed the limit
// or the context is sealed.
func (c *Context) WriteAt(p []byte, off int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return ErrSealed
	}
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", ErrOutOfBounds, off)
	}
	if err := c.ensure(off + len(p)); err != nil {
		return err
	}
	copy(c.region[off:], p)
	return nil
}

// ReadAt copies len(p) bytes from the region at off into p. Reading
// beyond the committed region yields zeroes up to the limit, matching
// demand-paged zero pages.
func (c *Context) ReadAt(p []byte, off int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", ErrOutOfBounds, off)
	}
	if off+len(p) > c.limit {
		return fmt.Errorf("%w: read [%d,%d) past limit %d", ErrOutOfBounds, off, off+len(p), c.limit)
	}
	n := copy(p, c.region[min(off, len(c.region)):])
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	return nil
}

// Reset returns the context to its pre-invocation state so one context
// (and its grown backing region) can be reused across a batch of
// instances of the same function, or recycled through the context pool
// (NewPooled/Recycle). A fresh instance must not observe the previous
// instance's state: set descriptors are dropped, handoff marks are
// cleared, and the written span of the region is zeroed so ReadAt sees
// demand-paged zero pages exactly as if the context were new. The
// backing allocations — the region, the set slices, and the handoff
// map — are retained for the next cycle; only the bytes the previous
// instance actually touched (regionHi, not the full grown region) are
// re-zeroed.
func (c *Context) Reset() {
	c.mu.Lock()
	clear(c.inputs) // drop payload references so reuse cannot pin them
	c.inputs = c.inputs[:0]
	clear(c.output)
	c.output = c.output[:0]
	c.sealed = false
	clear(c.handed)
	c.committed = 0
	clear(c.region[:c.regionHi])
	c.regionHi = 0
	c.mu.Unlock()
	// Borrowed regions are released only after the aliasing input
	// descriptors are gone, and outside c.mu — release hooks recycle
	// external buffer pools and must not run under the context lock.
	c.dropBorrowed()
}

// Seal marks the context read-only. The dispatcher seals a context after
// the function exits so downstream transfers see an immutable snapshot.
func (c *Context) Seal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sealed = true
}

// Sealed reports whether the context has been sealed.
func (c *Context) Sealed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealed
}

// AddInputSet installs an input set descriptor, charging its payload to
// the committed footprint. Duplicate set names are rejected.
func (c *Context) AddInputSet(s Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return ErrSealed
	}
	for _, ex := range c.inputs {
		if ex.Name == s.Name {
			return fmt.Errorf("%w: %q", ErrDuplicateSet, s.Name)
		}
	}
	need := c.committed + s.TotalBytes()
	if need > c.limit {
		return fmt.Errorf("%w: inputs need %d bytes, limit %d", ErrOutOfBounds, need, c.limit)
	}
	c.committed = need
	c.inputs = append(c.inputs, s.Clone())
	return nil
}

// InputSet returns a copy of the named input set.
func (c *Context) InputSet(name string) (Set, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.inputs {
		if s.Name == name {
			return s.Clone(), nil
		}
	}
	return Set{}, fmt.Errorf("%w: input %q", ErrNoSuchSet, name)
}

// InputSets returns copies of all input sets in insertion order.
func (c *Context) InputSets() []Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Set, len(c.inputs))
	for i, s := range c.inputs {
		out[i] = s.Clone()
	}
	return out
}

// SetOutputs installs the function's output sets; called by the isolation
// backend when harvesting a finished function.
func (c *Context) SetOutputs(sets []Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return ErrSealed
	}
	seen := map[string]bool{}
	total := c.committed
	for _, s := range sets {
		if seen[s.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateSet, s.Name)
		}
		seen[s.Name] = true
		total += s.TotalBytes()
	}
	if total > c.limit {
		return fmt.Errorf("%w: outputs need %d bytes, limit %d", ErrOutOfBounds, total, c.limit)
	}
	c.committed = total
	clear(c.handed)
	c.output = c.output[:0]
	for _, s := range sets {
		c.output = append(c.output, s.Clone())
	}
	return nil
}

// AdoptOutputs installs the function's output sets without cloning item
// payloads: the context takes ownership of the sets as given. It is the
// zero-copy counterpart of SetOutputs, used when the producer (the
// isolation backend or a native-SDK function) relinquishes its buffers.
// The payloads are not duplicated, but they are charged to the
// context's committed footprint and bounds-checked against its limit
// exactly like SetOutputs — zero-copy changes how bytes move, not how
// much memory a function may hold.
func (c *Context) AdoptOutputs(sets []Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return ErrSealed
	}
	seen := map[string]bool{}
	total := c.committed
	for _, s := range sets {
		if seen[s.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateSet, s.Name)
		}
		seen[s.Name] = true
		total += s.TotalBytes()
	}
	if total > c.limit {
		return fmt.Errorf("%w: outputs need %d bytes, limit %d", ErrOutOfBounds, total, c.limit)
	}
	c.committed = total
	clear(c.handed)
	c.output = append(c.output[:0], sets...)
	return nil
}

// OutputSet returns a copy of the named output set. A set whose
// ownership has been handed off is gone: reading it reports
// ErrHandedOff, not stale data.
func (c *Context) OutputSet(name string) (Set, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.output {
		if s.Name == name {
			return s.Clone(), nil
		}
	}
	if c.handed[name] {
		return Set{}, fmt.Errorf("%w: output %q", ErrHandedOff, name)
	}
	return Set{}, fmt.Errorf("%w: output %q", ErrNoSuchSet, name)
}

// OutputSets returns copies of all output sets.
func (c *Context) OutputSets() []Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Set, len(c.output))
	for i, s := range c.output {
		out[i] = s.Clone()
	}
	return out
}

// TransferOutput copies the named output set of c into dst as an input
// set named dstName: the paper's copying data path (§6.1). The
// dispatcher moves sets with HandoffOutput / TakeOutputs instead.
func (c *Context) TransferOutput(setName string, dst *Context, dstName string) error {
	s, err := c.OutputSet(setName)
	if err != nil {
		return err
	}
	s.Name = dstName
	return dst.AddInputSet(s)
}

// HandoffOutput moves the named output set of c into dst without copying
// item payloads (zero-copy remap, the §6.1 future-work variant). The
// source context must be sealed first, guaranteeing immutability; the
// set is removed from c's outputs and marked handed off, so ownership
// stays unique: a second handoff (or a read) of the same set reports
// ErrHandedOff. If dst rejects the set — it is sealed, already owns an
// input of that name, or the payload would exceed its memory limit —
// ownership is restored to c, so a failed handoff never loses data.
func (c *Context) HandoffOutput(setName string, dst *Context, dstName string) error {
	s, err := c.takeOutput(setName)
	if err != nil {
		return err
	}
	moved := s
	moved.Name = dstName
	if err := dst.adoptInput(moved); err != nil {
		c.restoreOutput(s)
		return err
	}
	return nil
}

// TakeOutput moves the named output set out of a sealed context to the
// caller, without cloning payloads: the context-to-dispatcher half of
// the zero-copy data plane (HandoffOutput is the context-to-context
// half; both share the same ownership tracking). The returned set's
// items must be treated as immutable — they may alias buffers that
// other readers share.
func (c *Context) TakeOutput(name string) (Set, error) {
	return c.takeOutput(name)
}

// TakeOutputs moves every remaining output set out of a sealed context
// to the caller, in installation order, without cloning payloads. Sets
// already handed off individually are not included. After the call the
// context owns no outputs; reading or re-taking any of them reports
// ErrHandedOff until the context is Reset or new outputs are installed.
func (c *Context) TakeOutputs() ([]Set, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sealed {
		return nil, ErrNotSealed
	}
	out := c.output
	c.output = nil
	for _, s := range out {
		if c.handed == nil {
			c.handed = map[string]bool{}
		}
		c.handed[s.Name] = true
	}
	return out, nil
}

// takeOutput removes one output set under c.mu, marking it handed off.
func (c *Context) takeOutput(name string) (Set, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sealed {
		return Set{}, ErrNotSealed
	}
	for i, s := range c.output {
		if s.Name == name {
			c.output = append(c.output[:i:i], c.output[i+1:]...)
			if c.handed == nil {
				c.handed = map[string]bool{}
			}
			c.handed[name] = true
			return s, nil
		}
	}
	if c.handed[name] {
		return Set{}, fmt.Errorf("%w: output %q", ErrHandedOff, name)
	}
	return Set{}, fmt.Errorf("%w: output %q", ErrNoSuchSet, name)
}

// restoreOutput returns a taken set to c after a failed handoff.
func (c *Context) restoreOutput(s Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.output = append(c.output, s)
	delete(c.handed, s.Name)
}

// AdoptInputSet installs an input set without cloning item payloads:
// the context takes ownership of (or shares read-only access to) the
// given set. It is the zero-copy counterpart of AddInputSet — the
// receiving half of a handoff — with identical limit enforcement and
// committed-bytes accounting: only the memcpy is skipped.
func (c *Context) AdoptInputSet(s Set) error {
	return c.adoptInput(s)
}

func (c *Context) adoptInput(s Set) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return ErrSealed
	}
	for _, ex := range c.inputs {
		if ex.Name == s.Name {
			return fmt.Errorf("%w: %q", ErrDuplicateSet, s.Name)
		}
	}
	need := c.committed + s.TotalBytes()
	if need > c.limit {
		return fmt.Errorf("%w: inputs need %d bytes, limit %d", ErrOutOfBounds, need, c.limit)
	}
	// Zero-copy: the payload is charged but shared, not duplicated.
	c.committed = need
	c.inputs = append(c.inputs, s)
	return nil
}

// ShareInputSets returns the input sets without cloning item payloads,
// for consumers that promise not to mutate them (the engines treat
// inputs as read-only; the dvm host interface only copies out of them).
// The slice itself is fresh, so callers may reorder it freely.
func (c *Context) ShareInputSets() []Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Set(nil), c.inputs...)
}

// GroupByKey partitions a set's items by Item.Key, returning groups in
// lexicographic key order. It implements the `key` edge keyword.
func GroupByKey(s Set) []Set {
	byKey := map[string][]Item{}
	for _, it := range s.Items {
		byKey[it.Key] = append(byKey[it.Key], it)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Set, len(keys))
	for i, k := range keys {
		out[i] = Set{Name: s.Name, Items: byKey[k]}
	}
	return out
}
