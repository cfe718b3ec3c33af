// Package isolation is Dandelion's compute sandbox (§6.2 of the
// paper). A function runs to completion against a bounded memory and
// its declared inputs, with its system calls trapped and its run
// preempted by gas; dvm enforces all three in software.
//
// The paper builds four backends that differ in mechanism: KVM-style
// lightweight VMs, ptrace'd processes, CHERI capability threads and
// rWasm compile-time isolation. Here they are four names for one
// sandbox, and a name selects only the Table 1 cold-start cost profile
// that the performance model reads. Serving has one path: the program
// is decoded once, at registration, and every execution is one dvm.Run
// over pooled per-call state.
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

// CostProfile is the per-phase sandbox creation latency breakdown from
// Table 1 of the paper, in microseconds, plus execution characteristics
// used by the performance model.
type CostProfile struct {
	MarshalUS  float64 // marshal requests
	LoadUS     float64 // load binary from disk
	TransferUS float64 // transfer input
	ExecuteUS  float64 // execute function (sandbox entry/exit overhead)
	OutputUS   float64 // get/send output
	OtherUS    float64 // everything else
	// ComputeFactor scales pure compute time relative to native code
	// (rWasm's transpiled code runs slower, §7.3).
	ComputeFactor float64
	// CachedLoadUS replaces LoadUS when the binary is already in the
	// in-memory cache (§7.4 cached vs. uncached).
	CachedLoadUS float64
}

// TotalUS is the unloaded cold-start latency (the Table 1 "Total" row).
func (c CostProfile) TotalUS() float64 {
	return c.MarshalUS + c.LoadUS + c.TransferUS + c.ExecuteUS + c.OutputUS + c.OtherUS
}

// ColdStartUS reports cold-start latency with or without the binary
// cache.
func (c CostProfile) ColdStartUS(cached bool) float64 {
	if cached {
		return c.TotalUS() - c.LoadUS + c.CachedLoadUS
	}
	return c.TotalUS()
}

// Profiles measured on the Arm Morello board (Table 1).
var (
	MorelloCheri = CostProfile{
		MarshalUS: 12, LoadUS: 29, TransferUS: 2, ExecuteUS: 5,
		OutputUS: 9, OtherUS: 32, ComputeFactor: 1.0, CachedLoadUS: 4,
	}
	MorelloRWasm = CostProfile{
		MarshalUS: 15, LoadUS: 147, TransferUS: 2, ExecuteUS: 20,
		OutputUS: 12, OtherUS: 45, ComputeFactor: 2.6, CachedLoadUS: 18,
	}
	MorelloProcess = CostProfile{
		MarshalUS: 12, LoadUS: 54, TransferUS: 6, ExecuteUS: 371,
		OutputUS: 9, OtherUS: 34, ComputeFactor: 1.0, CachedLoadUS: 7,
	}
	MorelloKVM = CostProfile{
		MarshalUS: 30, LoadUS: 194, TransferUS: 2, ExecuteUS: 536,
		OutputUS: 25, OtherUS: 102, ComputeFactor: 1.0, CachedLoadUS: 24,
	}
)

// Profiles on the default x86 server with Linux 5.15 (§7.2 reports
// totals of 109, 539, and 218 µs for rWasm, process, and KVM). Phase
// breakdowns are scaled from the Morello profiles to match those totals.
var (
	X86RWasm   = scaleProfile(MorelloRWasm, 109.0/241.0)
	X86Process = scaleProfile(MorelloProcess, 539.0/486.0)
	X86KVM     = scaleProfile(MorelloKVM, 218.0/889.0)
)

func scaleProfile(p CostProfile, f float64) CostProfile {
	return CostProfile{
		MarshalUS: p.MarshalUS * f, LoadUS: p.LoadUS * f,
		TransferUS: p.TransferUS * f, ExecuteUS: p.ExecuteUS * f,
		OutputUS: p.OutputUS * f, OtherUS: p.OtherUS * f,
		ComputeFactor: p.ComputeFactor, CachedLoadUS: p.CachedLoadUS * f,
	}
}

// ErrUnknownBackend reports a request for a backend name Names does
// not list.
var ErrUnknownBackend = errors.New("isolation: unknown backend")

// Names lists the backend names, fastest to slowest on Morello.
func Names() []string { return []string{"cheri", "rwasm", "process", "kvm"} }

// Sandbox executes compute functions. Every backend name executes the
// same way; a name selects only the cost profile the model reads.
type Sandbox struct {
	name    string
	profile CostProfile
}

// New returns the sandbox for a backend name, with its Morello cost
// profile.
func New(name string) (*Sandbox, error) {
	var p CostProfile
	switch name {
	case "cheri":
		p = MorelloCheri
	case "rwasm":
		p = MorelloRWasm
	case "process":
		p = MorelloProcess
	case "kvm":
		p = MorelloKVM
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, name)
	}
	return &Sandbox{name: name, profile: p}, nil
}

// Name reports the backend name the sandbox was built with.
func (s *Sandbox) Name() string { return s.name }

// Cost reports the backend's cold-start cost profile (Table 1).
func (s *Sandbox) Cost() CostProfile { return s.profile }

// Execute runs the task's program to completion and returns its output
// sets. The function sees only its memory, bounded at MemBytes and
// drawn from dvm's pools, and its declared inputs; any fault — an
// access out of bounds, a system call, exhausted gas — fails the task.
// Faults read as CHERI capability faults, whatever the name: the
// bounds-checked memory dvm enforces plays the default data capability.
func (s *Sandbox) Execute(t Task) ([]memctx.Set, error) {
	res, err := dvm.Run(t.Prepared, t.MemBytes, t.Inputs, t.GasLimit)
	if err != nil {
		return nil, fmt.Errorf("cheri: capability fault: %w", err)
	}
	return res.Outputs, nil
}
