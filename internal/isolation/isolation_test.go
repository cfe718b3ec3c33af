package isolation

import (
	"errors"
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

// New accepts "cheri", the one sandbox, and no other name: the paper's
// other backends are cost profiles of the model, not sandboxes.
func TestNewUnknown(t *testing.T) {
	for _, n := range []string{"firecracker", "rwasm", "process", "kvm", "", "CHERI"} {
		if _, err := New(n); !errors.Is(err, ErrUnknownBackend) {
			t.Errorf("New(%q): err = %v, want ErrUnknownBackend", n, err)
		}
	}
	if _, err := New("cheri"); err != nil {
		t.Fatalf("New(cheri): %v", err)
	}
}

// Every backend New accepts (now only "cheri") runs echo from its
// encoded binary, decoded as registration decodes it.
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
