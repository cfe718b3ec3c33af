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
// with a decoded wire buffer (Request.Borrow). Outputs may also live in
// memory the request's Borrow owns: memctx.Alloc leases a function its
// output buffers under the region its input set was adopted under. dvm
// programs honour the contract by construction: their host interface
// only copies out of inputs.
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
	// MemBytes is the user-declared memory requirement (context limit):
	// 0 selects memctx.DefaultLimit, which is also the ceiling;
	// registration refuses anything above it or below 0.
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
	// prog is the binary's decoded program, pinned here at registration
	// and shared with every function registered with the same binary.
	// No invoke decodes or hashes a binary.
	prog *dvm.Program
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
	// programs maps binary content addresses (sha256) to decoded
	// programs, so identical binaries registered under different names
	// decode once and share one program.
	programs map[[sha256.Size]byte]*dvm.Program
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
		programs:     map[[sha256.Size]byte]*dvm.Program{},
	}
}

func (r *registry) addFunc(f ComputeFunc) error {
	if f.Name == "" {
		return fmt.Errorf("core: compute function needs a name")
	}
	if (f.Binary == nil) == (f.Go == nil) {
		return fmt.Errorf("core: function %q must set exactly one of Binary or Go", f.Name)
	}
	// The declaration is a bound the context and the sandbox commit up
	// to on demand: one the node cannot back would be a fatal
	// out-of-memory once a function touches its top.
	if f.MemBytes < 0 || f.MemBytes > memctx.DefaultLimit {
		return fmt.Errorf("core: function %q: memory declaration %d outside [0, %d]", f.Name, f.MemBytes, memctx.DefaultLimit)
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
		// Decode and validate here, once per distinct binary.
		key := sha256.Sum256(f.Binary)
		if r.programs[key] == nil {
			p, err := dvm.Decode(f.Binary)
			if err != nil {
				return fmt.Errorf("core: function %q: %w", f.Name, err)
			}
			r.programs[key] = p
		}
		rf.prog = r.programs[key]
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

// programCount reports how many distinct binaries registration has
// decoded (Stats.CachedPrograms).
func (r *registry) programCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.programs)
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
