package dvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"dandelion/internal/memctx"
)

// Trap errors: ways an untrusted program can be aborted. Each maps to a
// failure the platform reports to the user (cf. the process backend
// terminating functions that attempt syscalls, §6.2).
var (
	ErrSyscallAttempt = errors.New("dvm: function attempted a system call")
	ErrGasExhausted   = errors.New("dvm: gas exhausted (timeout preemption)")
	ErrMemFault       = errors.New("dvm: memory access out of bounds")
	ErrDivByZero      = errors.New("dvm: division by zero")
	ErrBadHostCall    = errors.New("dvm: invalid host interface call")
	ErrStackOverflow  = errors.New("dvm: call stack overflow")
	ErrStackUnderflow = errors.New("dvm: return with empty call stack")
)

// Host interface call numbers. Arguments are passed in r1..r6, results in
// r0. This is the "special data structure" lower-level system interface
// of §4.1, expressed as host calls instead of memory-mapped descriptors.
const (
	HostInputSetCount = 1 // r0 <- number of input sets
	HostItemCount     = 2 // r1=set -> r0 <- number of items
	HostItemSize      = 3 // r1=set r2=item -> r0 <- payload size
	HostReadItem      = 4 // r1=set r2=item r3=dst -> r0 <- bytes copied
	HostWriteItem     = 5 // r1=outSet# r2=src r3=len r4=key# -> r0 <- 0
	HostSetName       = 6 // r1=set r2=dst -> r0 <- name length (copied to dst)
	HostItemName      = 7 // r1=set r2=item r3=dst -> r0 <- name length
)

// Limits guarding the interpreter against hostile programs.
const (
	callStackLimit = 1024
	// DefaultGas bounds instruction count when the caller does not
	// specify one; roughly "a few hundred ms of compute".
	DefaultGas = 64 << 20
)

// Result reports a finished execution.
type Result struct {
	// Outputs harvested from the function's output writes, one set per
	// distinct output-set index, named "out0", "out1", ... unless the
	// caller renames them.
	Outputs []memctx.Set
	// GasUsed counts executed instructions.
	GasUsed int64
	// Halted is true when the program executed OpHalt (vs. falling off
	// the end of the code segment, which is also a clean stop).
	Halted bool
}

// Run interprets the program against the given memory size and inputs.
// memBytes bounds the byte-addressable function memory; the program's
// read-only data segment is mapped at address 0 of this memory. The
// bound is not an allocation: memory is committed from pooled buffers
// as the program touches it (see machine).
func Run(p *Program, memBytes int, inputs []memctx.Set, gasLimit int64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if gasLimit <= 0 {
		gasLimit = DefaultGas
	}
	if memBytes < len(p.Data) {
		return nil, fmt.Errorf("%w: data segment (%d bytes) exceeds memory (%d)", ErrMemFault, len(p.Data), memBytes)
	}
	m := acquire(int64(memBytes), p.Data)
	res, err := m.run(p, inputs, gasLimit)
	m.release()
	return res, err
}

// run interprets p on the machine until it halts, falls off the end of
// the code segment, or traps.
func (m *machine) run(p *Program, inputs []memctx.Set, gasLimit int64) (*Result, error) {
	var regs [NumRegs]int64
	pc := int64(0)
	gas := int64(0)
	n := int64(len(p.Code))

	for pc < n {
		gas++
		if gas > gasLimit {
			return nil, ErrGasExhausted
		}
		ins := p.Code[pc]
		next := pc + 1
		switch ins.Op {
		case OpHalt:
			return m.finish(gas, true), nil
		case OpLi:
			regs[ins.Rd] = ins.Imm
		case OpMov:
			regs[ins.Rd] = regs[ins.Rs]
		case OpAdd:
			regs[ins.Rd] = regs[ins.Rs] + regs[ins.Rt]
		case OpSub:
			regs[ins.Rd] = regs[ins.Rs] - regs[ins.Rt]
		case OpMul:
			regs[ins.Rd] = regs[ins.Rs] * regs[ins.Rt]
		case OpDiv:
			if regs[ins.Rt] == 0 {
				return nil, ErrDivByZero
			}
			regs[ins.Rd] = regs[ins.Rs] / regs[ins.Rt]
		case OpMod:
			if regs[ins.Rt] == 0 {
				return nil, ErrDivByZero
			}
			regs[ins.Rd] = regs[ins.Rs] % regs[ins.Rt]
		case OpAnd:
			regs[ins.Rd] = regs[ins.Rs] & regs[ins.Rt]
		case OpOr:
			regs[ins.Rd] = regs[ins.Rs] | regs[ins.Rt]
		case OpXor:
			regs[ins.Rd] = regs[ins.Rs] ^ regs[ins.Rt]
		case OpShl:
			regs[ins.Rd] = regs[ins.Rs] << (uint64(regs[ins.Rt]) & 63)
		case OpShr:
			regs[ins.Rd] = int64(uint64(regs[ins.Rs]) >> (uint64(regs[ins.Rt]) & 63))
		case OpAddi:
			regs[ins.Rd] = regs[ins.Rs] + ins.Imm
		case OpMuli:
			regs[ins.Rd] = regs[ins.Rs] * ins.Imm
		case OpLd:
			addr := regs[ins.Rs] + ins.Imm
			if err := m.checkMem(addr, 8); err != nil {
				return nil, err
			}
			regs[ins.Rd] = int64(binary.LittleEndian.Uint64(m.mem[addr:]))
		case OpSt:
			addr := regs[ins.Rd] + ins.Imm
			if err := m.checkMem(addr, 8); err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint64(m.mem[addr:], uint64(regs[ins.Rs]))
		case OpLdb:
			addr := regs[ins.Rs] + ins.Imm
			if err := m.checkMem(addr, 1); err != nil {
				return nil, err
			}
			regs[ins.Rd] = int64(m.mem[addr])
		case OpStb:
			addr := regs[ins.Rd] + ins.Imm
			if err := m.checkMem(addr, 1); err != nil {
				return nil, err
			}
			m.mem[addr] = byte(regs[ins.Rs])
		case OpJmp:
			next = ins.Imm
		case OpBeq:
			if regs[ins.Rs] == regs[ins.Rt] {
				next = ins.Imm
			}
		case OpBne:
			if regs[ins.Rs] != regs[ins.Rt] {
				next = ins.Imm
			}
		case OpBlt:
			if regs[ins.Rs] < regs[ins.Rt] {
				next = ins.Imm
			}
		case OpBge:
			if regs[ins.Rs] >= regs[ins.Rt] {
				next = ins.Imm
			}
		case OpCall:
			if len(m.stack) >= callStackLimit {
				return nil, ErrStackOverflow
			}
			m.stack = append(m.stack, pc+1)
			next = ins.Imm
		case OpRet:
			if len(m.stack) == 0 {
				return nil, ErrStackUnderflow
			}
			next = m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
		case OpSyscall:
			// The entire point: user code cannot reach the host kernel.
			return nil, fmt.Errorf("%w (number %d)", ErrSyscallAttempt, ins.Imm)
		case OpHost:
			if err := m.hostCall(ins.Imm, &regs, inputs); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("dvm: unknown opcode %d at pc %d", ins.Op, pc)
		}
		pc = next
	}
	return m.finish(gas, false), nil
}

func (m *machine) hostCall(num int64, regs *[NumRegs]int64, inputs []memctx.Set) error {
	getSet := func(idx int64) (*memctx.Set, error) {
		if idx < 0 || idx >= int64(len(inputs)) {
			return nil, fmt.Errorf("%w: set index %d of %d", ErrBadHostCall, idx, len(inputs))
		}
		return &inputs[idx], nil
	}
	getItem := func(setIdx, itemIdx int64) (*memctx.Item, error) {
		s, err := getSet(setIdx)
		if err != nil {
			return nil, err
		}
		if itemIdx < 0 || itemIdx >= int64(len(s.Items)) {
			return nil, fmt.Errorf("%w: item index %d of %d", ErrBadHostCall, itemIdx, len(s.Items))
		}
		return &s.Items[itemIdx], nil
	}
	copyOut := func(dst int64, b []byte) error {
		if err := m.checkMem(dst, int64(len(b))); err != nil {
			return err
		}
		copy(m.mem[dst:], b)
		return nil
	}

	switch num {
	case HostInputSetCount:
		regs[0] = int64(len(inputs))
	case HostItemCount:
		s, err := getSet(regs[1])
		if err != nil {
			return err
		}
		regs[0] = int64(len(s.Items))
	case HostItemSize:
		it, err := getItem(regs[1], regs[2])
		if err != nil {
			return err
		}
		regs[0] = int64(len(it.Data))
	case HostReadItem:
		it, err := getItem(regs[1], regs[2])
		if err != nil {
			return err
		}
		if err := copyOut(regs[3], it.Data); err != nil {
			return err
		}
		regs[0] = int64(len(it.Data))
	case HostWriteItem:
		setIdx, src, length := regs[1], regs[2], regs[3]
		if setIdx < 0 || setIdx > 255 {
			return fmt.Errorf("%w: output set index %d", ErrBadHostCall, setIdx)
		}
		if err := m.checkMem(src, length); err != nil {
			return err
		}
		out := m.output(setIdx)
		data := make([]byte, length)
		copy(data, m.mem[src:])
		out.Items = append(out.Items, memctx.Item{
			Name: "item" + strconv.Itoa(len(out.Items)),
			Key:  strconv.FormatInt(regs[4], 10),
			Data: data,
		})
		regs[0] = 0
	case HostSetName:
		s, err := getSet(regs[1])
		if err != nil {
			return err
		}
		if err := copyOut(regs[2], []byte(s.Name)); err != nil {
			return err
		}
		regs[0] = int64(len(s.Name))
	case HostItemName:
		it, err := getItem(regs[1], regs[2])
		if err != nil {
			return err
		}
		if err := copyOut(regs[3], []byte(it.Name)); err != nil {
			return err
		}
		regs[0] = int64(len(it.Name))
	default:
		return fmt.Errorf("%w: number %d", ErrBadHostCall, num)
	}
	return nil
}
