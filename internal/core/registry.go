// Package core implements the Dandelion worker-node execution system
// (§5 of the paper): the dispatcher that orchestrates composition
// invocations, the function/composition registry, memory-context
// preparation, and the hand-off of tasks to compute and communication
// engines.
package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dandelion/internal/dsl"
	"dandelion/internal/dvm"
	"dandelion/internal/graph"
	"dandelion/internal/isolation"
	"dandelion/internal/memctx"
)

// Registry errors.
var (
	ErrAlreadyRegistered = errors.New("core: name already registered")
	ErrNotRegistered     = errors.New("core: name not registered")
)

// GoFunc is a compute function provided through the native SDK: the Go
// analogue of the paper's C/C++ SDK functions. The platform treats it
// like any other compute function — it runs on a compute engine, may
// not perform I/O, and exchanges data exclusively through sets.
//
// The data contract, binding on every compute and communication
// function: inputs are read-only; outputs may alias inputs until the
// request's Borrow is released. The platform moves sets between
// functions instead of copying them, so an input payload may be shared
// with other instances of the same batch, with the caller's request, or
// with a decoded wire buffer (Request.Borrow). dvm programs honour the
// contract by construction: their host interface only copies out of
// inputs.
type GoFunc func(inputs []memctx.Set) ([]memctx.Set, error)

// CommFunc is a trusted communication function (§6.3). Implementations
// are platform-provided; user compositions may invoke but not define
// them. They follow the GoFunc data contract: inputs are read-only;
// outputs may alias inputs until the request's Borrow is released.
type CommFunc interface {
	Name() string
	Invoke(inputs []memctx.Set) ([]memctx.Set, error)
}

// ComputeFunc describes a registered compute function.
type ComputeFunc struct {
	// Name is the registry key referenced by compositions.
	Name string
	// Binary is the dvm-encoded function body. Exactly one of Binary
	// and Go must be set.
	Binary []byte
	// Go is a native-SDK function body.
	Go GoFunc
	// MemBytes is the user-declared memory requirement (context limit).
	MemBytes int
	// GasLimit preempts runaway executions; 0 selects the default.
	GasLimit int64
	// OutputSets names the function's declared output sets in order.
	// dvm programs emit positional sets (out0, out1, ...) which are
	// renamed to these; Go functions should return sets already named.
	OutputSets []string
}

type registeredFunc struct {
	ComputeFunc
	prepared *dvm.Program // in-memory binary cache entry (nil = uncached)
	// progKey is the binary's content address, computed once here at
	// registration. Hot-path consumers (the batch program lookup, the
	// invocation-plan builder) key the program cache by it directly, so
	// no invoke ever re-hashes a binary.
	progKey [sha256.Size]byte
	// outRename maps positional dvm output names (out0, out1, ...) to
	// the function's declared output-set names, precomputed here so the
	// per-invoke harvest is a map lookup instead of a fmt.Sprintf scan.
	outRename map[string]string
}

type registry struct {
	mu           sync.RWMutex
	funcs        map[string]*registeredFunc
	comms        map[string]CommFunc
	compositions map[string]*graph.Composition
	// gen counts successful registrations of any kind. Cached
	// invocation plans record the generation they were built at and are
	// rebuilt when it moves, so a plan can never serve a resolution the
	// registry has since outgrown (e.g. a statement that failed to
	// resolve before its function was registered).
	gen atomic.Uint64
}

func newRegistry() *registry {
	return &registry{
		funcs:        map[string]*registeredFunc{},
		comms:        map[string]CommFunc{},
		compositions: map[string]*graph.Composition{},
	}
}

func (r *registry) addFunc(f ComputeFunc, backend isolation.Backend, cache bool, programs *programCache) error {
	if f.Name == "" {
		return fmt.Errorf("core: compute function needs a name")
	}
	if (f.Binary == nil) == (f.Go == nil) {
		return fmt.Errorf("core: function %q must set exactly one of Binary or Go", f.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[f.Name]; dup {
		return fmt.Errorf("%w: function %q", ErrAlreadyRegistered, f.Name)
	}
	if _, dup := r.comms[f.Name]; dup {
		return fmt.Errorf("%w: %q is a communication function", ErrAlreadyRegistered, f.Name)
	}
	rf := &registeredFunc{ComputeFunc: f}
	if f.Binary != nil {
		// Validate at registration through the hash-keyed program cache,
		// so identical binaries registered under different names share
		// one decoded program. The content hash is computed exactly once,
		// here; the hot paths reuse rf.progKey and never re-hash. The
		// decoded program is pinned to the function (skipping the
		// per-invocation decode) only when the in-memory binary cache is
		// enabled; the batch path always consults the key cache
		// regardless.
		rf.progKey = sha256.Sum256(f.Binary)
		p, err := programs.getByKey(rf.progKey, f.Binary)
		if err != nil {
			return fmt.Errorf("core: function %q: %w", f.Name, err)
		}
		if c, ok := backend.(isolation.Compiler); ok {
			if err := c.Compile(f.Binary); err != nil {
				return fmt.Errorf("core: function %q: %w", f.Name, err)
			}
		}
		if cache {
			rf.prepared = p
		}
		if len(f.OutputSets) > 0 {
			rf.outRename = make(map[string]string, len(f.OutputSets))
			for k, declared := range f.OutputSets {
				rf.outRename[fmt.Sprintf("out%d", k)] = declared
			}
		}
	}
	r.funcs[f.Name] = rf
	r.gen.Add(1)
	return nil
}

func (r *registry) addComm(f CommFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := f.Name()
	if name == "" {
		return fmt.Errorf("core: communication function needs a name")
	}
	if _, dup := r.comms[name]; dup {
		return fmt.Errorf("%w: communication function %q", ErrAlreadyRegistered, name)
	}
	if _, dup := r.funcs[name]; dup {
		return fmt.Errorf("%w: %q is a compute function", ErrAlreadyRegistered, name)
	}
	r.comms[name] = f
	r.gen.Add(1)
	return nil
}

func (r *registry) addComposition(c *graph.Composition) error {
	if err := c.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.compositions[c.Name]; dup {
		return fmt.Errorf("%w: composition %q", ErrAlreadyRegistered, c.Name)
	}
	r.compositions[c.Name] = c
	r.gen.Add(1)
	return nil
}

func (r *registry) addCompositionText(src string) ([]string, error) {
	cs, err := dsl.ParseFile(src)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, c := range cs {
		if err := r.addComposition(c); err != nil {
			return names, err
		}
		names = append(names, c.Name)
	}
	return names, nil
}

// generation reports the registry's registration counter; cached
// invocation plans are keyed by it.
func (r *registry) generation() uint64 { return r.gen.Load() }

// vertex resolution: compositions shadow nothing; lookup order is
// comm function, compute function, composition.
type vertex struct {
	comm CommFunc
	fn   *registeredFunc
	comp *graph.Composition
}

// zero reports whether the vertex is unresolved.
func (v vertex) zero() bool { return v.comm == nil && v.fn == nil && v.comp == nil }

func (r *registry) resolve(name string) (vertex, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if f, ok := r.comms[name]; ok {
		return vertex{comm: f}, nil
	}
	if f, ok := r.funcs[name]; ok {
		return vertex{fn: f}, nil
	}
	if c, ok := r.compositions[name]; ok {
		return vertex{comp: c}, nil
	}
	return vertex{}, fmt.Errorf("%w: %q", ErrNotRegistered, name)
}

func (r *registry) composition(name string) (*graph.Composition, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.compositions[name]
	if !ok {
		return nil, fmt.Errorf("%w: composition %q", ErrNotRegistered, name)
	}
	return c, nil
}
