package frontend

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"dandelion/internal/dvm"
)

// What a client sees when it registers and invokes dvm binaries over
// HTTP: the status code and the exact error text. Every fault the
// sandbox reports reaches the client as `cheri: capability fault: `
// followed by the dvm reason, under the statement label core adds and
// the `error` reason token every invocation error leaves a node with.
func TestSandboxErrorsOverHTTP(t *testing.T) {
	_, srv := newServer(t)
	oob, err := dvm.Assemble("li r1, 999999\nld r0, r1, 0\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	const fault = "error: core: C%s: statement 0 (%s): cheri: capability fault: "
	cases := []struct {
		name    string
		binary  []byte
		headers map[string]string
		// regCode and regErr are the registration's answer; an invoke
		// follows only a successful registration.
		regCode int
		regErr  string
		code    int
		body    string
	}{
		{name: "Echo", binary: dvm.EchoProgram().Encode(), regCode: 200, code: 200, body: "payload"},
		{
			name: "Syscall", binary: dvm.SyscallProgram().Encode(), regCode: 200,
			code: http.StatusInternalServerError,
			body: fmt.Sprintf(fault, "Syscall", "Syscall") + "dvm: function attempted a system call (number 60)",
		},
		{
			name: "Spin", binary: dvm.SpinProgram().Encode(), headers: map[string]string{"X-Gas-Limit": "500"}, regCode: 200,
			code: http.StatusInternalServerError,
			body: fmt.Sprintf(fault, "Spin", "Spin") + "dvm: gas exhausted (timeout preemption)",
		},
		{
			name: "OutOfBounds", binary: oob.Encode(), headers: map[string]string{"X-Memory-Bytes": "64"}, regCode: 200,
			code: http.StatusInternalServerError,
			body: fmt.Sprintf(fault, "OutOfBounds", "OutOfBounds") + "dvm: memory access out of bounds: [999999,1000007) of 64",
		},
		{
			name: "Garbage", binary: []byte("garbage"), regCode: http.StatusBadRequest,
			regErr: `core: function "Garbage": dvm: malformed binary: bad magic`,
		},
	}
	for _, c := range cases {
		headers := map[string]string{"X-Output-Sets": "Out"}
		for k, v := range c.headers {
			headers[k] = v
		}
		code, body := post(t, srv.URL+"/register/function/"+c.name, headers, c.binary)
		if code != c.regCode {
			t.Fatalf("register %s = %d %q, want %d", c.name, code, body, c.regCode)
		}
		if c.regCode != 200 {
			if got := errorText(t, body); got != c.regErr {
				t.Errorf("register %s error = %q, want %q", c.name, got, c.regErr)
			}
			continue
		}
		code, body = post(t, srv.URL+"/register/composition", nil, []byte(fmt.Sprintf(
			"composition C%s(In) => Result { %s(x = all In) => (Result = Out); }", c.name, c.name)))
		if code != 200 {
			t.Fatalf("register composition C%s: %d %s", c.name, code, body)
		}
		code, body = post(t, srv.URL+"/invoke/C"+c.name+"?input=In", nil, []byte("payload"))
		if code != c.code {
			t.Fatalf("invoke C%s = %d %q, want %d", c.name, code, body, c.code)
		}
		if code != 200 {
			body = errorText(t, body)
		}
		if body != c.body {
			t.Errorf("invoke C%s body = %q, want %q", c.name, body, c.body)
		}
	}
}

// errorText decodes a JSON error body's message.
func errorText(t *testing.T, body string) string {
	t.Helper()
	var e struct{ Error string }
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return e.Error
}
