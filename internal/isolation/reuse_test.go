package isolation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// Sandbox memory is pooled across runs, so isolation between runs is an
// invariant the pool must keep: run N+1 never reads a byte run N wrote.
// Writers mark memory through every write path a program has and end
// every way a run can end; after each one a reader sweeps its whole
// declared memory and reports how many bytes past its own data segment
// are not zero.

// reuseLimits are the declared memories writers and readers use: one
// per size class a reader can see whole (a reader's limit equals its
// class, so it reads every byte of the buffer it is given).
var reuseLimits = []int{1 << 10, 4 << 10, 64 << 10}

// writePaths emit code marking memory at addr through one write path.
// Input set 0 item 0 carries marker bytes, and the set's and the item's
// names are marker strings.
var writePaths = map[string]func(addr int, word uint64) string{
	"data": nil, // the data segment itself: see writer
	"st": func(addr int, word uint64) string {
		return fmt.Sprintf("li r1, %d\nli r2, %d\nst r1, r2, 0\n", addr, int64(word))
	},
	"stb": func(addr int, word uint64) string {
		return fmt.Sprintf("li r1, %d\nli r2, %d\nstb r1, r2, 0\n", addr, word&0xff)
	},
	"host 4": func(addr int, _ uint64) string {
		return fmt.Sprintf("li r1, 0\nli r2, 0\nli r3, %d\nhost 4\n", addr)
	},
	"host 6": func(addr int, _ uint64) string {
		return fmt.Sprintf("li r1, 0\nli r2, %d\nhost 6\n", addr)
	},
	"host 7": func(addr int, _ uint64) string {
		return fmt.Sprintf("li r1, 0\nli r2, 0\nli r3, %d\nhost 7\n", addr)
	},
}

// endings finish a writer, each with the error it must report.
var endings = map[string]struct {
	src  func(limit int) string
	want error
}{
	"halt":    {func(int) string { return "halt\n" }, nil},
	"fault":   {func(limit int) string { return fmt.Sprintf("li r1, %d\nld r2, r1, 0\n", limit) }, dvm.ErrMemFault},
	"gas":     {func(int) string { return "spin: jmp spin\n" }, dvm.ErrGasExhausted},
	"syscall": {func(int) string { return "syscall 1\n" }, dvm.ErrSyscallAttempt},
}

// markLen is the length of every marker a host copy writes.
const markLen = 64

// writer builds a program that marks low memory, memory past the
// smallest class, and the top of its limit through one path — so a
// writer declaring more than one class grows its committed extent —
// then ends one way.
func writer(t *testing.T, path string, limit int, word uint64, end string) *dvm.Program {
	t.Helper()
	var src strings.Builder
	if emit := writePaths[path]; emit != nil {
		for _, addr := range []int{16, limit/2 + 8, limit - markLen} {
			src.WriteString(emit(addr, word))
		}
	}
	src.WriteString(endings[end].src(limit))
	p, err := dvm.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	if path == "data" {
		p.Data = bytes.Repeat([]byte{byte(word)}, limit-markLen)
	}
	return p
}

// reader sweeps [8, limit) from the top down — its first load commits
// the whole limit at once — and outputs the count of non-zero bytes.
// Its own data segment is the non-zero word at [0, 8).
func reader(t *testing.T, limit int) *dvm.Program {
	t.Helper()
	p, err := dvm.Assemble(fmt.Sprintf(`
        li   r9, 0
        li   r12, 0
        li   r10, %d
        li   r11, 8
        li   r13, 8
        li   r14, 255
loop:   blt  r10, r11, done
        ld   r5, r10, 0
        addi r10, r10, -8
        beq  r5, r9, loop
        li   r6, 0
bytes:  bge  r6, r13, loop
        and  r7, r5, r14
        beq  r7, r9, bnext
        addi r12, r12, 1
bnext:  shr  r5, r5, r13
        addi r6, r6, 1
        jmp  bytes
done:   st   r9, r12, 0
        li   r1, 0
        li   r2, 0
        li   r3, 8
        li   r4, 0
        host 5
        halt
        .word 0x0101010101010101
`, limit-8))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunNeverReadsPreviousRunsBytes(t *testing.T) {
	readers := map[int]*dvm.Program{}
	for _, limit := range reuseLimits {
		readers[limit] = reader(t, limit)
	}
	tenants := []uint64{0xa5a5a5a5a5a5a5a5, 0x5b5b5b5b5b5b5b5b}
	s := sandbox(t)
	type writerTask struct {
		name string
		task Task
		want error
	}
	var wg sync.WaitGroup
	for ti, word := range tenants {
		mark := string(bytes.Repeat([]byte{byte(word)}, markLen))
		inputs := []memctx.Set{{Name: mark, Items: []memctx.Item{{Name: mark, Data: []byte(mark)}}}}
		var writers []writerTask
		for path := range writePaths {
			for end, e := range endings {
				for _, limit := range reuseLimits {
					writers = append(writers, writerTask{
						name: fmt.Sprintf("%s/%s/%d", path, end, limit),
						task: Task{Prepared: writer(t, path, limit, word, end), MemBytes: limit, Inputs: inputs, GasLimit: 10000},
						want: e.want,
					})
				}
			}
		}
		// Two goroutines per tenant: the engines of two tenants drawing
		// on the same pools at once.
		for g := 0; g < 2; g++ {
			name := fmt.Sprintf("tenant %d goroutine %d", ti, g)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, w := range writers {
					if _, err := s.Execute(w.task); !errors.Is(err, w.want) {
						t.Errorf("%s writer %s: err = %v, want %v", name, w.name, err, w.want)
						return
					}
					for _, rl := range reuseLimits {
						out, err := s.Execute(Task{Prepared: readers[rl], MemBytes: rl})
						if err != nil {
							t.Errorf("%s reader %d: %v", name, rl, err)
							return
						}
						if n := binary.LittleEndian.Uint64(out[0].Items[0].Data); n != 0 {
							t.Errorf("%s: after writer %s, reader %d saw %d non-zero bytes", name, w.name, rl, n)
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
