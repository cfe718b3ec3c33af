package isolation

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// sandbox returns the default sandbox.
func sandbox(t *testing.T) *Sandbox {
	t.Helper()
	s, err := New("cheri")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func echoTask(p *dvm.Program) Task {
	return Task{
		Prepared: p,
		MemBytes: 4096,
		Inputs: []memctx.Set{{Name: "in", Items: []memctx.Item{
			{Name: "x", Data: []byte("payload")},
		}}},
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("firecracker"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("err = %v, want ErrUnknownBackend", err)
	}
	for _, n := range Names() {
		if s, err := New(n); err != nil || s.Name() != n {
			t.Fatalf("New(%q) = %v, %v", n, s, err)
		}
	}
}

// Every backend name is the same sandbox, so one run of each case below
// covers them all. This one runs echo from its encoded binary, decoded
// as registration decodes it.
func TestAllBackendsExecuteEcho(t *testing.T) {
	p, err := dvm.Decode(dvm.EchoProgram().Encode())
	if err != nil {
		t.Fatal(err)
	}
	out, err := sandbox(t).Execute(echoTask(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0].Items[0].Data) != "payload" {
		t.Fatalf("output = %+v", out)
	}
}

func TestAllBackendsPreparedPath(t *testing.T) {
	out, err := sandbox(t).Execute(echoTask(dvm.EchoProgram()))
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0].Items[0].Data) != "payload" {
		t.Fatal("bad output")
	}
}

// faultPrefix is the text every sandbox fault starts with; clients see
// it in the error body of a failed invocation.
const faultPrefix = "cheri: capability fault: "

func TestSyscallTrappedEverywhere(t *testing.T) {
	_, err := sandbox(t).Execute(Task{Prepared: dvm.SyscallProgram(), MemBytes: 64})
	if !errors.Is(err, dvm.ErrSyscallAttempt) || !strings.HasPrefix(err.Error(), faultPrefix) {
		t.Errorf("err = %v, want a syscall trap", err)
	}
}

func TestGasPreemption(t *testing.T) {
	_, err := sandbox(t).Execute(Task{Prepared: dvm.SpinProgram(), MemBytes: 64, GasLimit: 500})
	if !errors.Is(err, dvm.ErrGasExhausted) || !strings.HasPrefix(err.Error(), faultPrefix) {
		t.Errorf("err = %v, want gas exhaustion", err)
	}
}

func TestMemoryFaultSurfaced(t *testing.T) {
	p, err := dvm.Assemble("li r1, 999999\nld r0, r1, 0\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sandbox(t).Execute(Task{Prepared: p, MemBytes: 64})
	if !errors.Is(err, dvm.ErrMemFault) || !strings.HasPrefix(err.Error(), faultPrefix) {
		t.Errorf("err = %v, want memory fault", err)
	}
}

func TestTable1Totals(t *testing.T) {
	// The Morello profiles must reproduce the Table 1 totals exactly.
	cases := []struct {
		p    CostProfile
		want float64
	}{
		{MorelloCheri, 89}, {MorelloRWasm, 241}, {MorelloProcess, 486}, {MorelloKVM, 889},
	}
	for _, c := range cases {
		if got := c.p.TotalUS(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("total = %v, want %v", got, c.want)
		}
	}
}

func TestX86TotalsMatchPaper(t *testing.T) {
	// §7.2: "the total latencies of the rWasm, process, and KVM backends
	// are 109, 539, and 218 microseconds" on the default kernel.
	cases := []struct {
		p    CostProfile
		want float64
	}{
		{X86RWasm, 109}, {X86Process, 539}, {X86KVM, 218},
	}
	for _, c := range cases {
		if got := c.p.TotalUS(); math.Abs(got-c.want) > 0.5 {
			t.Errorf("x86 total = %v, want %v", got, c.want)
		}
	}
}

func TestCachedColdStartCheaper(t *testing.T) {
	for _, p := range []CostProfile{MorelloCheri, MorelloRWasm, MorelloProcess, MorelloKVM} {
		if p.ColdStartUS(true) >= p.ColdStartUS(false) {
			t.Errorf("cached cold start not cheaper: %+v", p)
		}
	}
}

func TestBackendOrderFastestToSlowest(t *testing.T) {
	// Table 1's headline: cheri < rwasm < process < kvm on Morello.
	var prev float64
	for i, n := range Names() {
		b, _ := New(n)
		tot := b.Cost().TotalUS()
		if i > 0 && tot <= prev {
			t.Fatalf("backend order violated at %s", n)
		}
		prev = tot
	}
}

func TestComputeFactorOnlyRWasmSlower(t *testing.T) {
	for _, n := range Names() {
		b, _ := New(n)
		f := b.Cost().ComputeFactor
		if n == "rwasm" {
			if f <= 1 {
				t.Errorf("rwasm compute factor = %v, want > 1", f)
			}
		} else if f != 1 {
			t.Errorf("%s compute factor = %v, want 1", n, f)
		}
	}
}
