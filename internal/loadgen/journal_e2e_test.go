// Crash-recovery end-to-end test of the durable invocation journal: a
// file-journaled worker serves keyed traffic through a cluster
// coordinator across a lossy transport (responses dropped after
// execution), is killed and restarted against the same journal
// directory, and comes back with its reconfiguration and completed-key
// dedup state intact — every request executed exactly once across both
// lives.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/frontend"
	"dandelion/internal/wire"
)

// newJournaledEchoServer is newEchoServer with a durable journal at
// dir. Shutdown is NOT registered on cleanup: the test manages both
// platform lives explicitly (the first life is "crashed", not shut
// down, before the second opens the same journal).
func newJournaledEchoServer(t *testing.T, dir string) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{ComputeEngines: 4, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Upper",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			out := dandelion.Set{Name: "Out"}
			for _, it := range in[0].Items {
				out.Items = append(out.Items, dandelion.Item{
					Name: it.Name, Data: []byte(strings.ToUpper(string(it.Data))),
				})
			}
			return []dandelion.Set{out}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition U(In) => Result {
    Upper(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(frontend.New(p))
	t.Cleanup(srv.Close)
	return p, srv
}

func TestJournalCrashRecoveryE2E(t *testing.T) {
	dir := t.TempDir()

	// Life 1: a file-journaled worker behind a lossy proxy — the proxy
	// forwards every request but severs the connection instead of
	// answering the first /invoke-batch, so the worker executes the
	// chunk and the coordinator sees a wholesale transport failure.
	p1, w1 := newJournaledEchoServer(t, dir)
	var batchCalls atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req, err := http.NewRequest(r.Method, w1.URL+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if strings.HasPrefix(r.URL.Path, "/invoke-batch/") && batchCalls.Add(1) == 1 {
			// The worker already executed; lose the response.
			panic(http.ErrAbortHandler)
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(payload)
	}))
	t.Cleanup(proxy.Close)

	// Coordinator: keyed retries on, the lossy worker its only member.
	cp, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Shutdown)
	mgr := cluster.NewManager()
	if err := mgr.Register("w1", cluster.NewRemoteNode(proxy.URL, cluster.RemoteOptions{})); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(frontend.NewWithConfig(cp, frontend.Config{
		Cluster: mgr,
	}))
	t.Cleanup(coord.Close)

	// Phase 1: a batch through the coordinator loses its first response
	// mid-flight. The keyed retry goes back to the same worker (no other
	// survivor) and must complete the batch from the dedup table —
	// exactly once, transparent to the client.
	reqs := make([]wire.BatchRequest, 4)
	for i := range reqs {
		reqs[i] = wire.BatchRequest{Inputs: map[string][]wire.Item{
			"In": {{Name: "x", Data: []byte(fmt.Sprintf("v%d", i))}},
		}}
	}
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(coord.URL+"/invoke-batch/U", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var results []wire.BatchResult
	err = json.NewDecoder(resp.Body).Decode(&results)
	resp.Body.Close()
	if err != nil || len(results) != 4 {
		t.Fatalf("batch response: %d results, err %v", len(results), err)
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		if got := string(r.Outputs["Result"][0].Data); got != fmt.Sprintf("V%d", i) {
			t.Fatalf("result %d = %q", i, got)
		}
	}
	st := p1.Stats()
	if st.Invocations != 4 {
		t.Fatalf("worker executed %d invocations, want 4 (retry must dedup, not duplicate)", st.Invocations)
	}
	if st.DedupHits != 4 {
		t.Fatalf("dedup hits = %d, want 4 (the lost chunk re-answered from the table)", st.DedupHits)
	}
	if st.JournalAppends == 0 {
		t.Fatal("no journal records appended")
	}

	// Phase 2: reconfigure the worker (journaled as it applies) and
	// serve one client-keyed request straight to its frontend.
	p1.SetTenantWeight("alice", 7)
	p1.SetAdmissionClamp(2, 8)
	soloReq, err := http.NewRequest(http.MethodPost, w1.URL+"/invoke/U?input=In", strings.NewReader("solo"))
	if err != nil {
		t.Fatal(err)
	}
	soloReq.Header.Set(frontend.IdempotencyKeyHeader, "client-1")
	soloResp, err := http.DefaultClient.Do(soloReq)
	if err != nil {
		t.Fatal(err)
	}
	soloBody, _ := io.ReadAll(soloResp.Body)
	soloResp.Body.Close()
	if soloResp.StatusCode != http.StatusOK || string(soloBody) != "SOLO" {
		t.Fatalf("keyed invoke: status %d body %q", soloResp.StatusCode, soloBody)
	}

	// Phase 3: crash. The worker's server goes away mid-life — no
	// drain, no clean platform shutdown, no journal close. Every record
	// must already be durable.
	w1.Close()
	life1Invocations := p1.Stats().Invocations
	t.Cleanup(p1.Shutdown) // end-of-test resource cleanup only

	// Life 2: restart against the same journal directory. Replay must
	// restore the reconfiguration and the completed keys.
	p2, w2 := newJournaledEchoServer(t, dir)
	t.Cleanup(p2.Shutdown)
	if got := p2.TenantWeight("alice"); got != 7 {
		t.Fatalf("replayed weight = %d, want 7", got)
	}
	if lo, hi := p2.AdmissionClamp(); lo != 2 || hi != 8 {
		t.Fatalf("replayed clamp = (%d, %d), want (2, 8)", lo, hi)
	}
	if p2.JournalReplayed() == 0 {
		t.Fatal("no journal records replayed on restart")
	}

	// A re-send of the completed key is refused (409: done, outputs did
	// not survive the crash) — not re-executed.
	dupReq, err := http.NewRequest(http.MethodPost, w2.URL+"/invoke/U?input=In", strings.NewReader("solo"))
	if err != nil {
		t.Fatal(err)
	}
	dupReq.Header.Set(frontend.IdempotencyKeyHeader, "client-1")
	dupResp, err := http.DefaultClient.Do(dupReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dupResp.Body)
	dupResp.Body.Close()
	if dupResp.StatusCode != http.StatusConflict {
		t.Fatalf("replayed key answered status %d, want 409", dupResp.StatusCode)
	}
	if got := p2.Stats().Invocations; got != 0 {
		t.Fatalf("replayed key executed %d invocations, want 0", got)
	}

	// Fresh keyed work flows normally in the second life.
	freshReq, err := http.NewRequest(http.MethodPost, w2.URL+"/invoke/U?input=In", strings.NewReader("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	freshReq.Header.Set(frontend.IdempotencyKeyHeader, "client-2")
	freshResp, err := http.DefaultClient.Do(freshReq)
	if err != nil {
		t.Fatal(err)
	}
	freshBody, _ := io.ReadAll(freshResp.Body)
	freshResp.Body.Close()
	if freshResp.StatusCode != http.StatusOK || string(freshBody) != "FRESH" {
		t.Fatalf("fresh keyed invoke: status %d body %q", freshResp.StatusCode, freshBody)
	}

	// Exactly once, across lives: 4 batch + 1 solo in life 1, 1 fresh in
	// life 2; the lost-response retry and the post-crash re-send added
	// zero executions.
	if total := life1Invocations + p2.Stats().Invocations; total != 6 {
		t.Fatalf("executed %d invocations across lives, want 6", total)
	}
}
