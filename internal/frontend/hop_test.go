// Coordinator→worker hop tests: a coordinator frontend routing over one
// cluster.RemoteNode to a real worker frontend. The invariant under
// test is that a worker's error is the same error on the coordinator:
// same sentinel, same HTTP status.
package frontend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/core"
)

// newHop boots a worker serving E (echo) and S (a 300 ms sleep that
// signals each start on the returned channel), and a coordinator that
// routes to it over one RemoteNode.
func newHop(t *testing.T) (*dandelion.Platform, *httptest.Server, *cluster.Manager, <-chan struct{}) {
	t.Helper()
	wp, worker := newServer(t)
	registerEcho(t, worker.URL)
	started := make(chan struct{}, 1)
	if err := wp.RegisterFunction(dandelion.ComputeFunc{
		Name: "Sleep",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(300 * time.Millisecond)
			return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := wp.RegisterCompositionText(`
composition S(In) => Result {
    Sleep(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	tr, coord := newCoordinator(t, "")
	if err := tr.Join("w1", cluster.NewRemoteNode(worker.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}
	return wp, coord, tr.Manager(), started
}

// TestCoordinatorKeepsWorkerErrorMeaning: the statuses a worker answers
// for draining (503), an in-flight idempotency key (409) and a lapsed
// deadline (504) are the statuses its coordinator answers, and a batch
// through the coordinator keeps the draining sentinel in every slot.
func TestCoordinatorKeepsWorkerErrorMeaning(t *testing.T) {
	wp, coord, m, started := newHop(t)

	// A keyed request holds its key in flight on the worker for 300 ms;
	// a second request with the same key must answer 409.
	first := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, coord.URL+"/invoke/S?input=In", bytes.NewReader([]byte("x")))
		req.Header.Set(IdempotencyKeyHeader, "k1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started
	if code, body := post(t, coord.URL+"/invoke/S?input=In",
		map[string]string{IdempotencyKeyHeader: "k1"}, []byte("x")); code != http.StatusConflict {
		t.Errorf("in-flight key via coordinator: %d %s, want 409", code, body)
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("first keyed request: %d, want 200", code)
	}

	// A 50 ms budget against a 300 ms function lapses on the hop.
	if code, body := post(t, coord.URL+"/invoke/S?input=In",
		map[string]string{DeadlineHeader: "50"}, []byte("x")); code != http.StatusGatewayTimeout {
		t.Errorf("lapsed deadline via coordinator: %d %s, want 504", code, body)
	}

	wp.Drain()
	if code, body := post(t, coord.URL+"/invoke/E?input=In", nil, []byte("x")); code != http.StatusServiceUnavailable {
		t.Errorf("draining worker via coordinator: %d %s, want 503", code, body)
	}
	reqs := []dandelion.Request{
		{Composition: "E", Inputs: map[string][]dandelion.Item{"In": {{Name: "a", Data: []byte("a")}}}},
		{Composition: "E", Inputs: map[string][]dandelion.Item{"In": {{Name: "b", Data: []byte("b")}}}},
	}
	for i, res := range m.InvokeBatch(context.Background(), reqs) {
		if !errors.Is(res.Err, dandelion.ErrDraining) {
			t.Errorf("batch slot %d to a draining worker: %v, want ErrDraining", i, res.Err)
		}
	}
}

// TestReasonRoundTrip walks every row of the reason table: a worker
// whose function fails with the row's error answers with the row's
// token and status, and the coordinator in front of it answers with the
// same status and the same text, the token once and never doubled; a
// JSON batch slot carries that text at both nodes. RemoteNode hands the error back satisfying the row's sentinel. A
// function whose own text looks like a token ("in_flight: x") stays a
// plain 500 through the coordinator.
func TestReasonRoundTrip(t *testing.T) {
	rows := []struct {
		token string
		err   error // what the function fails with
		is    error // the sentinel the decoded error must satisfy
		code  int
	}{
		{"draining", fmt.Errorf("%w: row", dandelion.ErrDraining), dandelion.ErrDraining, http.StatusServiceUnavailable},
		{"duplicate", fmt.Errorf("%w: row", dandelion.ErrDuplicate), dandelion.ErrDuplicate, http.StatusConflict},
		{"in_flight", fmt.Errorf("%w: row", dandelion.ErrInFlight), dandelion.ErrInFlight, http.StatusConflict},
		{"expired", fmt.Errorf("%w: row", dandelion.ErrExpired), dandelion.ErrExpired, http.StatusGatewayTimeout},
		{"timed_out", fmt.Errorf("%w: row", context.DeadlineExceeded), context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"error", errors.New("boom"), nil, http.StatusInternalServerError},
		{"error", errors.New("in_flight: x"), nil, http.StatusInternalServerError},
	}
	wp, worker := newServer(t)
	if err := wp.RegisterFunction(dandelion.ComputeFunc{
		Name: "Fail",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return nil, rows[in[0].Items[0].Data[0]].err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := wp.RegisterCompositionText(`
composition F(In) => Result {
    Fail(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	tr, coord := newCoordinator(t, "")
	rn := cluster.NewRemoteNode(worker.URL, cluster.RemoteOptions{})
	if err := tr.Join("w1", rn); err != nil {
		t.Fatal(err)
	}
	sentinels := []error{dandelion.ErrDraining, dandelion.ErrDuplicate, dandelion.ErrInFlight,
		dandelion.ErrExpired, context.DeadlineExceeded}

	for i, row := range rows {
		in := []byte{byte(i)}
		wCode, wBody := post(t, worker.URL+"/invoke/F?input=In", nil, in)
		cCode, cBody := post(t, coord.URL+"/invoke/F?input=In", nil, in)
		if wCode != row.code || cCode != wCode || cBody != wBody {
			t.Errorf("%q: worker %d %s, coordinator %d %s; want both %d and equal",
				row.err, wCode, wBody, cCode, cBody, row.code)
		}
		text := errorText(t, cBody)
		if !strings.HasPrefix(text, row.token+": ") || strings.HasPrefix(text, row.token+": "+row.token+": ") {
			t.Errorf("%q: coordinator text %q, want the %q token exactly once", row.err, text, row.token)
		}

		sets := map[string][]dandelion.Item{"In": {{Name: "x", Data: in}}}
		for _, base := range []string{worker.URL, coord.URL} {
			if _, errs := postBatchJSON(t, base+"/invoke-batch/F", []map[string][]dandelion.Item{sets}); errs[0] != text {
				t.Errorf("%q: JSON batch slot at %s = %q, want %q", row.err, base, errs[0], text)
			}
		}

		req := dandelion.Request{Composition: "F", Inputs: sets}
		_, invokeErr := rn.Invoke(context.Background(), req)
		batchErr := rn.InvokeBatch(context.Background(), []dandelion.Request{req})[0].Err
		for _, err := range []error{invokeErr, batchErr} {
			if core.EncodeReason(err) != text {
				t.Errorf("%q: RemoteNode error re-encodes as %q, want %q", row.err, core.EncodeReason(err), text)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != (s == row.is) {
					t.Errorf("%q: RemoteNode error %q: errors.Is(%v) = %v", row.err, err, s, !(s == row.is))
				}
			}
		}
	}
}
