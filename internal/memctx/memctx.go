// Package memctx implements Dandelion's memory contexts (§5 of the
// paper): the bounded set descriptors the dispatcher prepares for each
// function instance before it runs.
//
// A context carries the function's input sets and items and is
// harvested for output sets after execution. Sets move rather than
// copy (the zero-copy variant sketched as future work in §6.1): the
// dispatcher adopts a producer's sets as a consumer's inputs, the
// function's outputs are adopted as given, and a sealed context's
// outputs are taken out whole, after which the context holds none.
// Every byte a context holds is charged against its memory bound. The
// bytes a sandboxed function computes over live in the sandbox
// (internal/dvm), not here.
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
	ErrDuplicateSet = errors.New("memctx: duplicate set name")
	// ErrNotSealed is returned by TakeOutputs on a context that has not
	// been sealed yet: ownership may only move out of an immutable
	// snapshot.
	ErrNotSealed = errors.New("memctx: handoff requires a sealed source context")
)

// Item is one data item within a set: a named, optionally keyed blob.
// Keys are user-assigned and only used for `key`-distributed edges (§4.1).
type Item struct {
	Name string
	Key  string
	Data []byte
}

// Set is a named collection of items, the unit of dataflow between
// functions: every edge in a composition maps one output set to one
// input set.
type Set struct {
	Name  string
	Items []Item
	// lease is the Region the set was adopted under
	// (AdoptInputSetBorrowed), nil if none: Alloc hands out output
	// buffers that region owns.
	lease *Region
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

// Context is the set/item descriptors the platform exchanges with the
// sandboxed function, bounded in bytes. The bound is set when the
// function is registered (like AWS Lambda memory sizing).
type Context struct {
	mu     sync.Mutex
	limit  int
	inputs []Set
	// output is nil once TakeOutputs has moved the sets out: ownership
	// is unique, so a taken set cannot be read or taken a second time.
	output []Set
	sealed bool
	// committed tracks the bytes charged to this instance, the number
	// the memory-accounting experiments (Figures 1/10) charge for.
	committed int
	// borrowed holds the Regions retained via AdoptInputSetBorrowed:
	// external pooled memory the inputs alias. Reset releases them (see
	// borrow.go) after the aliasing descriptors are dropped.
	borrowed []*Region
}

// DefaultLimit is the context bound used when the caller gives none:
// 256 MiB, matching common FaaS memory-sizing defaults.
const DefaultLimit = 256 << 20

// CommittedBytes reports the bytes charged to this context: its inputs
// plus its outputs, including outputs already taken.
func (c *Context) CommittedBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed
}

// Reset returns the context to its pre-invocation state so one context
// can be reused across a batch of instances of the same function, or
// recycled through the context pool (NewPooled/Recycle). A fresh
// instance must not observe the previous instance's state: set
// descriptors are dropped, the seal is lifted, nothing stays charged
// and borrowed regions are released. The input slice is retained for
// the next cycle.
func (c *Context) Reset() {
	c.mu.Lock()
	clear(c.inputs) // drop payload references so reuse cannot pin them
	c.inputs = c.inputs[:0]
	clear(c.output)
	c.output = c.output[:0]
	c.sealed = false
	c.committed = 0
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

// AddInputSet installs a copy of an input set: AdoptInputSetBorrowed
// of a clone, with the same checks and charge.
func (c *Context) AddInputSet(s Set) error {
	return c.adoptInput(s.Clone())
}

// SetOutputs installs copies of the function's output sets: AdoptOutputs
// of clones, with the same checks and charge.
func (c *Context) SetOutputs(sets []Set) error {
	clones := make([]Set, len(sets))
	for i, s := range sets {
		clones[i] = s.Clone()
	}
	return c.AdoptOutputs(clones)
}

// AdoptOutputs installs the function's output sets without cloning item
// payloads: the context takes ownership of the sets as given, as the
// producer (the isolation backend or a native-SDK function) relinquishes
// its buffers. Duplicate set names are rejected. The payloads are not
// duplicated, but they are charged to the context's committed footprint
// and bounds-checked against its limit — zero-copy changes how bytes
// move, not how much memory a function may hold.
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
	c.output = append(c.output[:0], sets...)
	return nil
}

// TakeOutputs moves every output set out of a sealed context to the
// caller, in installation order, without cloning payloads: the
// context-to-dispatcher handoff of the zero-copy data plane. The
// returned set's items must be treated as immutable — they may alias
// buffers that other readers share. After the call the context owns no
// outputs, and no method reads them: a second TakeOutputs returns none
// until new outputs are installed.
func (c *Context) TakeOutputs() ([]Set, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sealed {
		return nil, ErrNotSealed
	}
	out := c.output
	c.output = nil
	return out, nil
}

// adoptInput installs an input set without cloning item payloads: the
// context takes ownership of (or shares read-only access to) the given
// set. Duplicate set names and a sealed context are rejected, and the
// payload is charged to the committed footprint within the limit.
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
