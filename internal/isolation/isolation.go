// Package isolation provides Dandelion's four compute-engine sandbox
// backends (§6.2 of the paper): KVM-style lightweight VMs, ptrace'd
// processes, CHERI capability threads, and rWasm compile-time isolation.
//
// On the paper's hardware these backends differ in *mechanism*; to the
// execution system they are interchangeable implementations of one
// interface: prepare isolation around a memory context, run the function
// to completion, harvest outputs. This repository enforces the isolation
// semantics in software (dvm's memory bounds, syscall trapping, and gas
// preemption) and attaches to each backend the cold-start cost profile
// measured in Table 1 so the performance-model layer reproduces the
// paper's latency structure.
package isolation

import (
	"errors"
	"fmt"
	"sync"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// Task is one compute-function execution request handed to a backend.
type Task struct {
	// Binary is the registered function binary (dvm encoding). Backends
	// that compile at registration time (rWasm) ignore it in favour of
	// Prepared.
	Binary []byte
	// Prepared is an optional pre-decoded program (the in-memory binary
	// cache of §7.4). When nil, the backend decodes Binary on the
	// critical path, the "load from disk / uncached" configuration.
	Prepared *dvm.Program
	// MemBytes bounds the function's memory region.
	MemBytes int
	// Inputs are the function's input sets.
	Inputs []memctx.Set
	// GasLimit preempts runaway functions (0 = default).
	GasLimit int64
}

// Backend executes compute functions under one isolation mechanism.
type Backend interface {
	// Name identifies the backend ("kvm", "process", "cheri", "rwasm").
	Name() string
	// Execute runs the task to completion and returns its output sets.
	Execute(t Task) ([]memctx.Set, error)
	// Cost reports the backend's cold-start cost profile.
	Cost() CostProfile
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

// ErrUnknownBackend reports a request for an unregistered backend name.
var ErrUnknownBackend = errors.New("isolation: unknown backend")

// New constructs a backend by name using the Morello cost profiles
// ("kvm", "process", "cheri", "rwasm").
func New(name string) (Backend, error) {
	switch name {
	case "kvm":
		return &kvmBackend{profile: MorelloKVM}, nil
	case "process":
		return &processBackend{profile: MorelloProcess}, nil
	case "cheri":
		return &cheriBackend{profile: MorelloCheri}, nil
	case "rwasm":
		return &rwasmBackend{profile: MorelloRWasm}, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, name)
}

// Names lists the available backend names.
func Names() []string { return []string{"cheri", "rwasm", "process", "kvm"} }

// loadProgram resolves the task's program, decoding the binary when no
// prepared program is supplied (the uncached path).
func loadProgram(t Task) (*dvm.Program, error) {
	if t.Prepared != nil {
		return t.Prepared, nil
	}
	return dvm.Decode(t.Binary)
}

// kvmBackend models the minimal-hypervisor backend: each function runs
// in its own "guest physical address space" with identity mapping;
// memory and vCPU state are reset between launches by reusing pooled
// interpreter state (dvm.Run starts from zeroed registers and memory,
// re-zeroing what a run touched before reuse, matching the
// Virtines-style structure reuse).
type kvmBackend struct {
	profile CostProfile
}

func (b *kvmBackend) Name() string      { return "kvm" }
func (b *kvmBackend) Cost() CostProfile { return b.profile }

func (b *kvmBackend) Execute(t Task) ([]memctx.Set, error) {
	p, err := loadProgram(t)
	if err != nil {
		return nil, err
	}
	res, err := dvm.Run(p, t.MemBytes, t.Inputs, t.GasLimit)
	if err != nil {
		return nil, fmt.Errorf("kvm: vmexit with fault: %w", err)
	}
	return res.Outputs, nil
}

// processBackend models ptrace'd process isolation: the function runs in
// a separate goroutine ("process") communicating only through the task's
// declared inputs and outputs; any panic in user code is confined to
// that goroutine and surfaces as a function failure, like a crashed
// child process.
type processBackend struct {
	profile CostProfile
}

func (b *processBackend) Name() string      { return "process" }
func (b *processBackend) Cost() CostProfile { return b.profile }

func (b *processBackend) Execute(t Task) ([]memctx.Set, error) {
	p, err := loadProgram(t)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		res *dvm.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("process: function crashed: %v", r)}
			}
		}()
		res, err := dvm.Run(p, t.MemBytes, t.Inputs, t.GasLimit)
		ch <- outcome{res: res, err: err}
	}()
	o := <-ch
	if o.err != nil {
		if errors.Is(o.err, dvm.ErrSyscallAttempt) {
			// ptrace caught the syscall: terminate and notify (§6.2).
			return nil, fmt.Errorf("process: terminated by ptrace: %w", o.err)
		}
		return nil, fmt.Errorf("process: %w", o.err)
	}
	return o.res.Outputs, nil
}

// cheriBackend models CHERI hybrid-mode capability isolation: functions
// run as threads within the Dandelion process; the "default data
// capability" is the bounds-checked function memory dvm enforces. No
// new thread of execution is spawned on the critical path.
type cheriBackend struct {
	profile CostProfile
}

func (b *cheriBackend) Name() string      { return "cheri" }
func (b *cheriBackend) Cost() CostProfile { return b.profile }

func (b *cheriBackend) Execute(t Task) ([]memctx.Set, error) {
	p, err := loadProgram(t)
	if err != nil {
		return nil, err
	}
	res, err := dvm.Run(p, t.MemBytes, t.Inputs, t.GasLimit)
	if err != nil {
		return nil, fmt.Errorf("cheri: capability fault: %w", err)
	}
	return res.Outputs, nil
}

// rwasmBackend models compile-time software isolation: binaries are
// transpiled and validated once at registration (Compile), and Execute
// refuses binaries that have not gone through that step — mirroring how
// the real backend only loads pre-compiled shared libraries.
type rwasmBackend struct {
	profile CostProfile

	mu       sync.Mutex
	compiled map[string]*dvm.Program
}

func (b *rwasmBackend) Name() string      { return "rwasm" }
func (b *rwasmBackend) Cost() CostProfile { return b.profile }

// ErrNotCompiled reports an rWasm execution of an unregistered binary.
var ErrNotCompiled = errors.New("rwasm: binary was not compiled at registration time")

// Compile transpiles and validates a binary, caching the result. It
// stands in for the Wasm → safe Rust → shared library pipeline.
func (b *rwasmBackend) Compile(binary []byte) error {
	p, err := dvm.Decode(binary)
	if err != nil {
		return fmt.Errorf("rwasm: transpile failed: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.compiled == nil {
		b.compiled = map[string]*dvm.Program{}
	}
	b.compiled[string(binary)] = p
	return nil
}

func (b *rwasmBackend) Execute(t Task) ([]memctx.Set, error) {
	var p *dvm.Program
	if t.Prepared != nil {
		p = t.Prepared
	} else {
		b.mu.Lock()
		p = b.compiled[string(t.Binary)]
		b.mu.Unlock()
		if p == nil {
			return nil, ErrNotCompiled
		}
	}
	res, err := dvm.Run(p, t.MemBytes, t.Inputs, t.GasLimit)
	if err != nil {
		return nil, fmt.Errorf("rwasm: %w", err)
	}
	return res.Outputs, nil
}

// Compiler is implemented by backends that require registration-time
// compilation.
type Compiler interface {
	Compile(binary []byte) error
}
