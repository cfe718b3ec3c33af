// Package isolation is Dandelion's compute sandbox (§6.2 of the
// paper). A function runs to completion against a bounded memory and
// its declared inputs, with its system calls trapped and its run
// preempted by gas; dvm enforces all three in software.
//
// The paper builds four backends that differ in mechanism: KVM-style
// lightweight VMs, ptrace'd processes, CHERI capability threads and
// rWasm compile-time isolation. Serving runs one sandbox, named for
// CHERI; the four backends' Table 1 cost profiles live with the
// performance model (internal/model/faas). The program is decoded
// once, at registration, and every execution is one dvm.Run over
// pooled per-call state.
package isolation

import (
	"errors"
	"fmt"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// Task is one compute-function execution handed to the sandbox.
type Task struct {
	// Prepared is the function's program, decoded once at registration.
	Prepared *dvm.Program
	// MemBytes bounds the function's memory region.
	MemBytes int
	// Inputs are the function's input sets.
	Inputs []memctx.Set
	// GasLimit preempts runaway functions (0 = default).
	GasLimit int64
}

// ErrUnknownBackend reports a request for a sandbox other than "cheri".
var ErrUnknownBackend = errors.New("isolation: unknown backend")

// Sandbox executes compute functions.
type Sandbox struct{}

// New returns the sandbox. "cheri" is the one name it accepts: faults
// read as CHERI capability faults (see Execute).
func New(name string) (*Sandbox, error) {
	if name != "cheri" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, name)
	}
	return &Sandbox{}, nil
}

// Execute runs the task's program to completion and returns its output
// sets. The function sees only its memory, bounded at MemBytes and
// drawn from dvm's pools, and its declared inputs; any fault — an
// access out of bounds, a system call, exhausted gas — fails the task.
// Faults read as CHERI capability faults: the bounds-checked memory
// dvm enforces plays the default data capability.
func (s *Sandbox) Execute(t Task) ([]memctx.Set, error) {
	res, err := dvm.Run(t.Prepared, t.MemBytes, t.Inputs, t.GasLimit)
	if err != nil {
		return nil, fmt.Errorf("cheri: capability fault: %w", err)
	}
	return res.Outputs, nil
}
