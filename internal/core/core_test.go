package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dandelion/internal/dvm"
	"dandelion/internal/graph"
	"dandelion/internal/memctx"
)

func newPlatform(t *testing.T, opts Options) *Platform {
	t.Helper()
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

// upper is a native-SDK compute function that upper-cases every item in
// its single input set into output set "Out".
func upper(inputs []memctx.Set) ([]memctx.Set, error) {
	out := memctx.Set{Name: "Out"}
	for _, s := range inputs {
		for _, it := range s.Items {
			out.Items = append(out.Items, memctx.Item{
				Name: it.Name, Key: it.Key, Data: bytes.ToUpper(it.Data),
			})
		}
	}
	return []memctx.Set{out}, nil
}

// fanout splits one item into n items keyed k0..k(n-1).
func fanout(n int) GoFunc {
	return func(inputs []memctx.Set) ([]memctx.Set, error) {
		out := memctx.Set{Name: "Out"}
		for i := 0; i < n; i++ {
			out.Items = append(out.Items, memctx.Item{
				Name: fmt.Sprintf("part%d", i),
				Key:  fmt.Sprintf("k%d", i%2),
				Data: []byte(fmt.Sprintf("%d", i)),
			})
		}
		return []memctx.Set{out}, nil
	}
}

// concat joins all items of all inputs with '|'.
func concat(inputs []memctx.Set) ([]memctx.Set, error) {
	var parts []string
	for _, s := range inputs {
		for _, it := range s.Items {
			parts = append(parts, string(it.Data))
		}
	}
	return []memctx.Set{{Name: "Out", Items: []memctx.Item{
		{Name: "joined", Data: []byte(strings.Join(parts, "|"))},
	}}}, nil
}

func items(vals ...string) []memctx.Item {
	out := make([]memctx.Item, len(vals))
	for i, v := range vals {
		out[i] = memctx.Item{Name: fmt.Sprintf("i%d", i), Data: []byte(v)}
	}
	return out
}

func TestSimplePipeline(t *testing.T) {
	p := newPlatform(t, Options{})
	if err := p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition Up(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "Up", Inputs: map[string][]memctx.Item{"In": items("hello", "world")}})
	if err != nil {
		t.Fatal(err)
	}
	got := out["Result"]
	if len(got) != 2 || string(got[0].Data) != "HELLO" || string(got[1].Data) != "WORLD" {
		t.Fatalf("result = %+v", got)
	}
	if p.Stats().Invocations != 1 {
		t.Fatal("invocation counter")
	}
}

func TestEachFanOutParallelInstances(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 4})
	p.RegisterFunction(ComputeFunc{Name: "Fan", Go: fanout(6)})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	if _, err := p.RegisterCompositionText(`
composition F(In) => Result {
    Fan(x = all In) => (parts = Out);
    Upper(x = each parts) => (upped = Out);
    Join(x = all upped) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "F", Inputs: map[string][]memctx.Item{"In": items("seed")}})
	if err != nil {
		t.Fatal(err)
	}
	got := string(out["Result"][0].Data)
	// Instance merge order must be deterministic: item order preserved.
	if got != "0|1|2|3|4|5" {
		t.Fatalf("result = %q", got)
	}
}

func TestKeyGrouping(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Fan", Go: fanout(4)}) // keys k0,k1,k0,k1
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	if _, err := p.RegisterCompositionText(`
composition K(In) => Result {
    Fan(x = all In) => (parts = Out);
    Join(x = key parts) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "K", Inputs: map[string][]memctx.Item{"In": items("seed")}})
	if err != nil {
		t.Fatal(err)
	}
	got := out["Result"]
	// Two groups (k0: 0,2; k1: 1,3), key-sorted.
	if len(got) != 2 || string(got[0].Data) != "0|2" || string(got[1].Data) != "1|3" {
		t.Fatalf("result = %+v", got)
	}
}

func TestSkipOnEmptyInput(t *testing.T) {
	p := newPlatform(t, Options{})
	ran := false
	p.RegisterFunction(ComputeFunc{Name: "Mark", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		ran = true
		return []memctx.Set{{Name: "Out"}}, nil
	}})
	p.RegisterFunction(ComputeFunc{Name: "Empty", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out"}}, nil // zero items
	}})
	if _, err := p.RegisterCompositionText(`
composition S(In) => Result {
    Empty(x = all In) => (none = Out);
    Mark(x = all none) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "S", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("downstream function ran despite empty input set")
	}
	if len(out["Result"]) != 0 {
		t.Fatalf("result = %+v, want empty", out["Result"])
	}
}

func TestOptionalInputRuns(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Empty", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		return []memctx.Set{{Name: "Out"}}, nil
	}})
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	if _, err := p.RegisterCompositionText(`
composition O(In) => Result {
    Empty(x = all In) => (maybe = Out);
    Join(a = all In, b = optional all maybe) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "O", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Result"]) != 1 || string(out["Result"][0].Data) != "x" {
		t.Fatalf("result = %+v", out["Result"])
	}
}

func TestDvmFunctionWithRenaming(t *testing.T) {
	p := newPlatform(t, Options{CacheBinaries: true})
	err := p.RegisterFunction(ComputeFunc{
		Name:       "Echo",
		Binary:     dvm.EchoProgram().Encode(),
		MemBytes:   4096,
		OutputSets: []string{"Copy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "E", Inputs: map[string][]memctx.Item{"In": items("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Result"]) != 1 || string(out["Result"][0].Data) != "payload" {
		t.Fatalf("result = %+v", out["Result"])
	}
}

func TestDvmSyscallAborts(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{
		Name: "Evil", Binary: dvm.SyscallProgram().Encode(), MemBytes: 64,
	})
	p.RegisterCompositionText(`
composition V(In) => Result {
    Evil(x = all In) => (Result = out0);
}`)
	_, err := p.Invoke(context.Background(), Request{Composition: "V", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if !errors.Is(err, dvm.ErrSyscallAttempt) {
		t.Fatalf("err = %v, want syscall trap", err)
	}
}

func TestGoPanicConfined(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Boom", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		panic("user bug")
	}})
	p.RegisterCompositionText(`
composition B(In) => Result {
    Boom(x = all In) => (Result = Out);
}`)
	_, err := p.Invoke(context.Background(), Request{Composition: "B", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("err = %v, want crash report", err)
	}
	// The platform survives.
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`)
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("ok")}}); err != nil {
		t.Fatalf("platform dead after user crash: %v", err)
	}
}

type fakeComm struct {
	name  string
	calls int
	mu    sync.Mutex
}

func (f *fakeComm) Name() string { return f.name }
func (f *fakeComm) Invoke(inputs []memctx.Set) ([]memctx.Set, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	out := memctx.Set{Name: "Response"}
	for _, s := range inputs {
		for _, it := range s.Items {
			out.Items = append(out.Items, memctx.Item{
				Name: it.Name, Data: append([]byte("resp:"), it.Data...),
			})
		}
	}
	return []memctx.Set{out}, nil
}

func TestCommFunctionOnCommEngines(t *testing.T) {
	p := newPlatform(t, Options{})
	comm := &fakeComm{name: "HTTP"}
	p.RegisterComm(comm)
	p.RegisterFunction(ComputeFunc{Name: "Fan", Go: fanout(3)})
	if _, err := p.RegisterCompositionText(`
composition C(In) => Result {
    Fan(x = all In) => (reqs = Out);
    HTTP(Request = each reqs) => (Result = Response);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "C", Inputs: map[string][]memctx.Item{"In": items("seed")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Result"]) != 3 {
		t.Fatalf("responses = %+v", out["Result"])
	}
	if comm.calls != 3 {
		t.Fatalf("comm calls = %d, want 3 (one per each-instance)", comm.calls)
	}
	if got := string(out["Result"][0].Data); got != "resp:0" {
		t.Fatalf("first response = %q", got)
	}
	if p.Stats().CommCompleted == 0 {
		t.Fatal("comm tasks did not run on communication engines")
	}
}

func TestNestedComposition(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	if _, err := p.RegisterCompositionText(`
composition Inner(X) => Y {
    Upper(a = all X) => (Y = Out);
}
composition Outer(In) => Result {
    Inner(X = all In) => (Result = Y);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), Request{Composition: "Outer", Inputs: map[string][]memctx.Item{"In": items("deep")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["Result"][0].Data) != "DEEP" {
		t.Fatalf("result = %+v", out["Result"])
	}
}

func TestDepthLimit(t *testing.T) {
	p := newPlatform(t, Options{MaxDepth: 3})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	// Recursive composition: refers to itself.
	c := &graph.Composition{
		Name:   "Rec",
		Inputs: []string{"In"},
		Stmts: []graph.Stmt{
			{Func: "Rec", Args: []graph.Arg{{Param: "In", Value: "In", Mode: graph.All}},
				Rets: []graph.Ret{{Value: "Out", Set: "Result"}}},
		},
		Outputs: []graph.OutputBinding{{Value: "Out", Name: "Result"}},
	}
	if err := p.RegisterComposition(c); err != nil {
		t.Fatal(err)
	}
	_, err := p.Invoke(context.Background(), Request{Composition: "Rec", Inputs: map[string][]memctx.Item{"In": items("x")}})
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
}

func TestErrors(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`)
	if _, err := p.Invoke(context.Background(), Request{Composition: "Nope"}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unknown composition err = %v", err)
	}
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{}}); !errors.Is(err, ErrMissingInput) {
		t.Fatalf("missing input err = %v", err)
	}
	// Unknown function inside a composition.
	p.RegisterCompositionText(`
composition G(In) => Result {
    Ghost(x = all In) => (Result = Out);
}`)
	if _, err := p.Invoke(context.Background(), Request{Composition: "G", Inputs: map[string][]memctx.Item{"In": items("x")}}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("ghost function err = %v", err)
	}
}

func TestFanoutMismatch(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	p.RegisterCompositionText(`
composition M(A, B) => Result {
    Join(a = each A, b = each B) => (Result = Out);
}`)
	_, err := p.Invoke(context.Background(), Request{Composition: "M", Inputs: map[string][]memctx.Item{
		"A": items("1", "2", "3"),
		"B": items("x", "y"),
	}})
	if !errors.Is(err, ErrInstanceFanout) {
		t.Fatalf("err = %v, want ErrInstanceFanout", err)
	}
	// Matching counts zip.
	out, err := p.Invoke(context.Background(), Request{Composition: "M", Inputs: map[string][]memctx.Item{
		"A": items("1", "2"),
		"B": items("x", "y"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Result"]) != 2 || string(out["Result"][0].Data) != "1|x" || string(out["Result"][1].Data) != "2|y" {
		t.Fatalf("zip = %+v", out["Result"])
	}
}

func TestRegistryErrors(t *testing.T) {
	p := newPlatform(t, Options{})
	if err := p.RegisterFunction(ComputeFunc{Name: ""}); err == nil {
		t.Fatal("unnamed function accepted")
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "X"}); err == nil {
		t.Fatal("function without body accepted")
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "X", Go: upper, Binary: []byte{1}}); err == nil {
		t.Fatal("function with two bodies accepted")
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "Bad", Binary: []byte("junk")}); err == nil {
		t.Fatal("garbage binary accepted")
	}
	p.RegisterFunction(ComputeFunc{Name: "F", Go: upper})
	if err := p.RegisterFunction(ComputeFunc{Name: "F", Go: upper}); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("dup function err = %v", err)
	}
	comm := &fakeComm{name: "F"}
	if err := p.RegisterComm(comm); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("comm/func clash err = %v", err)
	}
	good := &fakeComm{name: "HTTP"}
	p.RegisterComm(good)
	if err := p.RegisterComm(&fakeComm{name: "HTTP"}); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("dup comm err = %v", err)
	}
	if err := p.RegisterFunction(ComputeFunc{Name: "HTTP", Go: upper}); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("func/comm clash err = %v", err)
	}
	p.RegisterCompositionText(`composition D(I) => O { F(x = all I) => (O = Out); }`)
	if _, err := p.RegisterCompositionText(`composition D(I) => O { F(x = all I) => (O = Out); }`); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("dup composition err = %v", err)
	}
	if _, err := p.RegisterCompositionText("not a composition"); err == nil {
		t.Fatal("garbage DSL accepted")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 4, CommEngines: 2})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	p.RegisterComm(&fakeComm{name: "HTTP"})
	p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (up = Out);
    HTTP(Request = each up) => (Result = Response);
}`)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items(fmt.Sprintf("v%d", i))}})
			if err == nil && string(out["Result"][0].Data) != fmt.Sprintf("resp:V%d", i) {
				err = fmt.Errorf("bad result %q", out["Result"][0].Data)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
	}
	if got := p.Stats().Invocations; got != 32 {
		t.Fatalf("invocations = %d", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	p := newPlatform(t, Options{})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper, MemBytes: 1 << 20})
	p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`)
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("12345678")}}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PeakCommitted < 8 {
		t.Fatalf("peak committed = %d, want >= 8", st.PeakCommitted)
	}
	if st.CommittedBytes != 0 {
		t.Fatalf("committed after completion = %d, want 0", st.CommittedBytes)
	}
}

func TestZeroCopyOptionProducesSameResults(t *testing.T) {
	for _, zc := range []bool{false, true} {
		p := newPlatform(t, Options{ZeroCopy: zc})
		p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
		p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
		p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (up = Out);
    Join(x = all up) => (Result = Out);
}`)
		out, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("a", "b")}})
		if err != nil {
			t.Fatal(err)
		}
		if string(out["Result"][0].Data) != "A|B" {
			t.Fatalf("zeroCopy=%v: result = %+v", zc, out["Result"])
		}
	}
}

func TestDiamondParallelBranches(t *testing.T) {
	p := newPlatform(t, Options{ComputeEngines: 4})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	p.RegisterFunction(ComputeFunc{Name: "Lower", Go: func(in []memctx.Set) ([]memctx.Set, error) {
		out := memctx.Set{Name: "Out"}
		for _, s := range in {
			for _, it := range s.Items {
				out.Items = append(out.Items, memctx.Item{Name: it.Name, Data: bytes.ToLower(it.Data)})
			}
		}
		return []memctx.Set{out}, nil
	}})
	p.RegisterFunction(ComputeFunc{Name: "Join", Go: concat})
	p.RegisterCompositionText(`
composition D(In) => Result {
    Upper(x = all In) => (u = Out);
    Lower(x = all In) => (l = Out);
    Join(a = all u, b = all l) => (Result = Out);
}`)
	out, err := p.Invoke(context.Background(), Request{Composition: "D", Inputs: map[string][]memctx.Item{"In": items("MiXeD")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["Result"][0].Data) != "MIXED|mixed" {
		t.Fatalf("result = %q", out["Result"][0].Data)
	}
}

func TestBalancedPlatformOption(t *testing.T) {
	p := newPlatform(t, Options{Balance: true, ComputeEngines: 2, CommEngines: 2})
	p.RegisterFunction(ComputeFunc{Name: "Upper", Go: upper})
	p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`)
	if _, err := p.Invoke(context.Background(), Request{Composition: "U", Inputs: map[string][]memctx.Item{"In": items("x")}}); err != nil {
		t.Fatal(err)
	}
}
