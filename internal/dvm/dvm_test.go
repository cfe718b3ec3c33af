package dvm

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dandelion/internal/memctx"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func i64s(vals ...int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func TestArithmetic(t *testing.T) {
	p := mustAssemble(t, `
		li r1, 6
		li r2, 7
		mul r3, r1, r2
		li r4, 0
		st r4, r3, 0
		li r1, 0
		li r2, 0
		li r3, 8
		li r4, 0
		host 5
		halt
	`)
	res, err := Run(p, 1024, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Error("expected halt")
	}
	got := int64(binary.LittleEndian.Uint64(res.Outputs[0].Items[0].Data))
	if got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
}

func TestFallOffEndIsCleanStop(t *testing.T) {
	p := mustAssemble(t, "li r0, 1\n")
	res, err := Run(p, 64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Error("fall-off-end should not report Halted")
	}
}

func TestSyscallTraps(t *testing.T) {
	_, err := Run(SyscallProgram(), 64, nil, 0)
	if !errors.Is(err, ErrSyscallAttempt) {
		t.Fatalf("err = %v, want ErrSyscallAttempt", err)
	}
}

func TestGasExhaustion(t *testing.T) {
	_, err := Run(SpinProgram(), 64, nil, 1000)
	if !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("err = %v, want ErrGasExhausted", err)
	}
}

func TestMemoryBounds(t *testing.T) {
	cases := []string{
		"li r1, 100\nld r0, r1, 0\nhalt\n", // read past end (mem=64)
		"li r1, -9\nld r0, r1, 0\nhalt\n",  // negative address
		"li r1, 60\nst r1, r1, 0\nhalt\n",  // 8-byte store crossing end
		"li r1, 64\nstb r1, r1, 0\nhalt\n", // byte store at end
	}
	for _, src := range cases {
		p := mustAssemble(t, src)
		if _, err := Run(p, 64, nil, 0); !errors.Is(err, ErrMemFault) {
			t.Errorf("program %q err = %v, want ErrMemFault", src, err)
		}
	}
}

// Accesses whose end lies past MaxInt64 must fault, not wrap around the
// bounds compare and panic in a slice expression or makeslice.
func TestMemoryBoundsNearMaxInt64(t *testing.T) {
	cases := map[string]string{
		"ld":     "li r1, 0x7ffffffffffffffc\nld r2, r1, 0\nhalt\n",
		"st":     "li r1, 0x7ffffffffffffffc\nst r1, r1, 0\nhalt\n",
		"ldb":    "li r1, 0x7fffffffffffffff\nldb r2, r1, 1\nhalt\n",
		"stb":    "li r1, 0x7fffffffffffffff\nstb r1, r1, 1\nhalt\n",
		"host 4": "li r1, 0\nli r2, 0\nli r3, 0x7ffffffffffffffc\nhost 4\nhalt\n",
		"host 5": "li r1, 0\nli r2, 1\nli r3, 0x7fffffffffffffff\nli r4, 0\nhost 5\nhalt\n",
		"host 6": "li r1, 0\nli r2, 0x7ffffffffffffffe\nhost 6\nhalt\n",
		"host 7": "li r1, 0\nli r2, 0\nli r3, 0x7ffffffffffffffe\nhost 7\nhalt\n",
	}
	in := []memctx.Set{{Name: "set", Items: []memctx.Item{{Name: "item", Data: []byte("12345678")}}}}
	for name, src := range cases {
		p := mustAssemble(t, src)
		if _, err := Run(p, 64, in, 0); !errors.Is(err, ErrMemFault) {
			t.Errorf("%s: err = %v, want ErrMemFault", name, err)
		}
	}
}

// Memory is committed as it is touched: growing the committed extent
// keeps what was written below it, untouched memory reads zero, and
// the declared limit — not the committed extent or the buffer's size
// class — is what faults.
func TestMemoryCommittedOnTouch(t *testing.T) {
	p := mustAssemble(t, `
		li r1, 16
		li r2, 42
		st r1, r2, 0    ; committed: the smallest class
		li r1, 5000
		ld r5, r1, 0    ; an untouched load grows it to 8 KiB
		li r1, 65528
		li r2, 7
		st r1, r2, 0    ; and a store at the top to 64 KiB
		li r1, 16
		ld r6, r1, 0
		li r1, 0
		st r1, r6, 0
		st r1, r5, 8
		li r1, 0
		li r2, 0
		li r3, 16
		li r4, 0
		host 5
		halt
	`)
	res, err := Run(p, 64<<10, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Outputs[0].Items[0].Data, i64s(42, 0); string(got) != string(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	fault := mustAssemble(t, "li r1, 60\nld r0, r1, 0\nhalt\n")
	if _, err := Run(fault, 64, nil, 0); !errors.Is(err, ErrMemFault) || !strings.Contains(err.Error(), "[60,68) of 64") {
		t.Fatalf("err = %v, want a fault at [60,68) of 64", err)
	}
}

func TestDivByZero(t *testing.T) {
	for _, src := range []string{
		"li r1, 5\nli r2, 0\ndiv r0, r1, r2\nhalt\n",
		"li r1, 5\nli r2, 0\nmod r0, r1, r2\nhalt\n",
	} {
		p := mustAssemble(t, src)
		if _, err := Run(p, 64, nil, 0); !errors.Is(err, ErrDivByZero) {
			t.Errorf("err = %v, want ErrDivByZero", err)
		}
	}
}

func TestCallRet(t *testing.T) {
	p := mustAssemble(t, `
		li r1, 10
		call double
		call double
		li r4, 0
		st r4, r1, 0
		li r1, 0
		li r2, 0
		li r3, 8
		li r4, 0
		host 5
		halt
	double:
		add r1, r1, r1
		ret
	`)
	res, err := Run(p, 64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := int64(binary.LittleEndian.Uint64(res.Outputs[0].Items[0].Data))
	if got != 40 {
		t.Fatalf("result = %d, want 40", got)
	}
}

func TestRetUnderflow(t *testing.T) {
	p := mustAssemble(t, "ret\n")
	if _, err := Run(p, 64, nil, 0); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v, want ErrStackUnderflow", err)
	}
}

func TestCallStackOverflow(t *testing.T) {
	p := mustAssemble(t, "f: call f\n")
	if _, err := Run(p, 64, nil, 0); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
}

func TestHostReadWrite(t *testing.T) {
	in := []memctx.Set{{Name: "args", Items: []memctx.Item{{Name: "x", Data: []byte("abc")}}}}
	res, err := Run(EchoProgram(), 1024, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || string(res.Outputs[0].Items[0].Data) != "abc" {
		t.Fatalf("echo output = %+v", res.Outputs)
	}
}

func TestHostBadIndices(t *testing.T) {
	cases := []string{
		"li r1, 5\nhost 2\nhalt\n",           // set index out of range
		"li r1, 0\nli r2, 9\nhost 3\nhalt\n", // item index out of range
		"host 99\nhalt\n",                    // unknown call
		"li r1, -1\nhost 2\nhalt\n",          // negative set
	}
	in := []memctx.Set{{Name: "s", Items: []memctx.Item{{Name: "i", Data: []byte("x")}}}}
	for _, src := range cases {
		p := mustAssemble(t, src)
		if _, err := Run(p, 64, in, 0); !errors.Is(err, ErrBadHostCall) {
			t.Errorf("program %q err = %v, want ErrBadHostCall", src, err)
		}
	}
}

// Output sets come back in set-index order whatever order they were
// first written in, named out<n>, with items named item<n> in write
// order and keyed by r4.
func TestHostWriteOutputOrder(t *testing.T) {
	p := mustAssemble(t, `
		li r2, 0
		li r3, 1
		li r1, 200
		li r4, 7
		host 5
		li r1, 3
		li r4, -1
		host 5
		li r1, 200
		li r4, 12
		host 5
		halt
		.data "ab"
	`)
	res, err := Run(p, 64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []memctx.Set{
		{Name: "out3", Items: []memctx.Item{{Name: "item0", Key: "-1", Data: []byte("a")}}},
		{Name: "out200", Items: []memctx.Item{
			{Name: "item0", Key: "7", Data: []byte("a")},
			{Name: "item1", Key: "12", Data: []byte("a")},
		}},
	}
	if !reflect.DeepEqual(res.Outputs, want) {
		t.Fatalf("outputs = %+v, want %+v", res.Outputs, want)
	}
}

func TestHostReadIntoBadMemory(t *testing.T) {
	// Read item into an address beyond memory.
	src := "li r1, 0\nli r2, 0\nli r3, 1000\nhost 4\nhalt\n"
	in := []memctx.Set{{Name: "s", Items: []memctx.Item{{Name: "i", Data: []byte("xyz")}}}}
	p := mustAssemble(t, src)
	if _, err := Run(p, 64, in, 0); !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v, want ErrMemFault", err)
	}
}

func TestHostNames(t *testing.T) {
	src := `
		li r1, 0
		li r2, 0
		host 6          ; set name -> mem[0..]
		mov r5, r0
		li r1, 0
		li r2, 0
		li r3, 32
		host 7          ; item name -> mem[32..]
		; emit set name as output
		li r1, 0
		li r2, 0
		mov r3, r5
		li r4, 0
		host 5
		halt
	`
	in := []memctx.Set{{Name: "inputs", Items: []memctx.Item{{Name: "file1", Data: nil}}}}
	p := mustAssemble(t, src)
	res, err := Run(p, 128, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Outputs[0].Items[0].Data) != "inputs" {
		t.Fatalf("set name = %q", res.Outputs[0].Items[0].Data)
	}
}

func TestDataSegment(t *testing.T) {
	p := mustAssemble(t, `
		li r1, 0
		li r2, 0
		li r3, 5
		li r4, 0
		host 5
		halt
		.data "hello"
	`)
	res, err := Run(p, 64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Outputs[0].Items[0].Data) != "hello" {
		t.Fatalf("data = %q", res.Outputs[0].Items[0].Data)
	}
}

func TestDataSegmentTooBig(t *testing.T) {
	p := &Program{Data: make([]byte, 100)}
	if _, err := Run(p, 64, nil, 0); !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v, want ErrMemFault", err)
	}
}

func TestMatMul(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		a := make([]int64, n*n)
		b := make([]int64, n*n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range a {
			a[i] = int64(rng.Intn(100))
			b[i] = int64(rng.Intn(100))
		}
		want := make([]int64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var acc int64
				for k := 0; k < n; k++ {
					acc += a[i*n+k] * b[k*n+j]
				}
				want[i*n+j] = acc
			}
		}
		in := []memctx.Set{{Name: "m", Items: []memctx.Item{
			{Name: "A", Data: i64s(a...)},
			{Name: "B", Data: i64s(b...)},
		}}}
		res, err := Run(MatMulProgram(n), MatMulMemBytes(n), in, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := res.Outputs[0].Items[0].Data
		for i, w := range want {
			g := int64(binary.LittleEndian.Uint64(got[i*8:]))
			if g != w {
				t.Fatalf("n=%d: C[%d] = %d, want %d", n, i, g, w)
			}
		}
	}
}

func TestReduce(t *testing.T) {
	vals := []int64{5, -3, 42, 0, 17}
	in := []memctx.Set{{Name: "arr", Items: []memctx.Item{{Name: "a", Data: i64s(vals...)}}}}
	res, err := Run(ReduceProgram(), 4096, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0].Items[0].Data
	sum := int64(binary.LittleEndian.Uint64(out[0:]))
	mn := int64(binary.LittleEndian.Uint64(out[8:]))
	mx := int64(binary.LittleEndian.Uint64(out[16:]))
	if sum != 61 || mn != -3 || mx != 42 {
		t.Fatalf("sum/min/max = %d/%d/%d, want 61/-3/42", sum, mn, mx)
	}
}

func TestReduceEmpty(t *testing.T) {
	in := []memctx.Set{{Name: "arr", Items: []memctx.Item{{Name: "a", Data: nil}}}}
	res, err := Run(ReduceProgram(), 4096, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0].Items[0].Data
	for i := 0; i < 24; i++ {
		if out[i] != 0 {
			t.Fatalf("empty reduce non-zero: %v", out)
		}
	}
}

// Property: dvm matmul agrees with a Go reference for random matrices.
func TestMatMulProperty(t *testing.T) {
	prog := MatMulProgram(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]int64, 9)
		b := make([]int64, 9)
		for i := range a {
			a[i] = int64(rng.Intn(2001) - 1000)
			b[i] = int64(rng.Intn(2001) - 1000)
		}
		in := []memctx.Set{{Name: "m", Items: []memctx.Item{
			{Name: "A", Data: i64s(a...)}, {Name: "B", Data: i64s(b...)},
		}}}
		res, err := Run(prog, MatMulMemBytes(3), in, 0)
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var acc int64
				for k := 0; k < 3; k++ {
					acc += a[i*3+k] * b[k*3+j]
				}
				g := int64(binary.LittleEndian.Uint64(res.Outputs[0].Items[0].Data[(i*3+j)*8:]))
				if g != acc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
