package dvm

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"dandelion/internal/memctx"
)

// Sandbox memory. A function's declared memory is a bound, not an
// allocation: a run's memory is the prefix [0, committed) of a pooled
// buffer, and committed grows as the program touches memory — the data
// segment, loads, stores, and host copies in and out — one power-of-two
// size class at a time, never past the declared limit. Memory above the
// committed extent is zero when it is first touched, as a fresh
// allocation would be.
//
// Invariant: every buffer in a pool is zero across its whole length. A
// run writes only below its committed extent, so re-zeroing that extent
// on release restores the invariant, and one run never reads a byte
// another run wrote.

// minClassShift sets the smallest size class, 1 KiB: a function that
// touches a few hundred bytes commits — and re-zeros — no more.
const minClassShift = 10

// buffer is one pooled backing array; its length is its size class.
type buffer struct{ b []byte }

// buffers holds one pool per size class 1<<shift.
var buffers [64]sync.Pool

// classShift returns the shift of the smallest size class holding n
// bytes.
func classShift(n int64) int {
	if n <= 1<<minClassShift {
		return minClassShift
	}
	return bits.Len64(uint64(n - 1))
}

func getBuffer(shift int) *buffer {
	if buf, _ := buffers[shift].Get().(*buffer); buf != nil {
		return buf
	}
	return &buffer{b: make([]byte, 1<<shift)}
}

// putBuffer re-zeros the first n bytes of buf — everything a run could
// have written — and returns it to its class's pool.
func putBuffer(buf *buffer, n int) {
	clear(buf.b[:n])
	buffers[bits.TrailingZeros(uint(len(buf.b)))].Put(buf)
}

// machine is the interpreter state one run uses and the next reuses:
// its memory, call stack and output sets.
type machine struct {
	buf   *buffer
	mem   []byte // buf.b[:committed], committed ≤ limit
	limit int64
	stack []int64
	outs  []output // sorted by index
}

// output is one output set under construction and its set index.
type output struct {
	idx int64
	set memctx.Set
}

var machines = sync.Pool{New: func() any { return new(machine) }}

// acquire returns a machine bounded by limit with the data segment
// committed and copied in; the caller has checked len(data) ≤ limit.
func acquire(limit int64, data []byte) *machine {
	m := machines.Get().(*machine)
	m.limit = limit
	m.commit(classShift(int64(len(data))))
	copy(m.mem, data)
	return m
}

// release re-zeros the committed extent and pools the machine and its
// buffer. Every way a run ends — halt, falling off the code, a trap —
// returns through Run, which calls release; a run that panics never
// does, so its buffer is dropped rather than pooled.
func (m *machine) release() {
	putBuffer(m.buf, len(m.mem))
	clear(m.outs) // the sets now belong to the Result
	m.buf, m.mem, m.stack, m.outs = nil, nil, m.stack[:0], m.outs[:0]
	machines.Put(m)
}

// commit makes a buffer of class 1<<shift the machine's memory,
// committing it up to the limit.
func (m *machine) commit(shift int) {
	m.buf = getBuffer(shift)
	m.mem = m.buf.b[:min(int64(len(m.buf.b)), m.limit)]
}

// checkMem makes [addr, addr+size) addressable or faults. The in-bounds
// test is against the committed extent (as unsigned values a negative
// addr or size is out of range, and no sum can wrap); only an access
// past it takes the slow branch.
func (m *machine) checkMem(addr, size int64) error {
	if n := uint64(len(m.mem)); uint64(size) <= n && uint64(addr) <= n-uint64(size) {
		return nil
	}
	return m.grow(addr, size)
}

// grow is checkMem's slow branch: it faults an access outside the
// declared limit, and otherwise commits the smallest size class
// covering the access, moving the committed bytes into it.
func (m *machine) grow(addr, size int64) error {
	if addr < 0 || size < 0 || size > m.limit || addr > m.limit-size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrMemFault, addr, addr+size, m.limit)
	}
	old, n := m.buf, len(m.mem)
	m.commit(classShift(addr + size))
	copy(m.mem, old.b[:n])
	putBuffer(old, n)
	return nil
}

// output returns output set idx, creating it in index order.
func (m *machine) output(idx int64) *memctx.Set {
	i := 0
	for ; i < len(m.outs) && m.outs[i].idx <= idx; i++ {
		if m.outs[i].idx == idx {
			return &m.outs[i].set
		}
	}
	m.outs = append(m.outs, output{})
	copy(m.outs[i+1:], m.outs[i:])
	m.outs[i] = output{idx: idx, set: memctx.Set{Name: "out" + strconv.FormatInt(idx, 10)}}
	return &m.outs[i].set
}

// finish harvests the output sets in index order.
func (m *machine) finish(gas int64, halted bool) *Result {
	res := &Result{GasUsed: gas, Halted: halted}
	if len(m.outs) > 0 {
		res.Outputs = make([]memctx.Set, len(m.outs))
		for i := range m.outs {
			res.Outputs[i] = m.outs[i].set
		}
	}
	return res
}
