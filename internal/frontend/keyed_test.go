// Idempotency-key serving tests: the Idempotency-Key header on the
// invoke and batch routes, per-request body keys, dedup-backed
// re-sends, and the 409 conflict answer for completed keys without
// cached outputs.
package frontend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dandelion"
	"dandelion/internal/wire"
)

// newUpperServer boots a platform with the uppercase echo composition
// behind the frontend.
func newUpperServer(t *testing.T) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
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
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	return p, srv
}

// TestInvokeIdempotencyKeyHeader: a re-send of a keyed /invoke is
// answered from the dedup table — same body, no second execution.
func TestInvokeIdempotencyKeyHeader(t *testing.T) {
	p, srv := newUpperServer(t)
	send := func() (int, string) {
		return post(t, srv.URL+"/invoke/U?input=In",
			map[string]string{IdempotencyKeyHeader: "order-42"}, []byte("hi"))
	}
	if code, body := send(); code != 200 || body != "HI" {
		t.Fatalf("keyed invoke: %d %q", code, body)
	}
	if code, body := send(); code != 200 || body != "HI" {
		t.Fatalf("keyed re-send: %d %q", code, body)
	}
	st := p.Stats()
	if st.Invocations != 1 || st.DedupHits != 1 {
		t.Fatalf("invocations=%d hits=%d, want 1/1", st.Invocations, st.DedupHits)
	}
}

// TestBatchIdempotencyKeyHeaderExpansion: a base header key expands to
// one key per batch request, so resending the whole batch dedups every
// slot.
func TestBatchIdempotencyKeyHeaderExpansion(t *testing.T) {
	p, srv := newUpperServer(t)
	reqs := make([]wire.BatchRequest, 3)
	for i := range reqs {
		reqs[i] = wire.BatchRequest{Inputs: map[string][]wire.Item{
			"In": {{Name: "x", Data: []byte(fmt.Sprintf("v%d", i))}},
		}}
	}
	body, _ := json.Marshal(reqs)
	send := func() []wire.BatchResult {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/U", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(IdempotencyKeyHeader, "batch-9")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res []wire.BatchResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || len(res) != 3 {
			t.Fatalf("batch response: %d results, err %v", len(res), err)
		}
		for i, r := range res {
			if r.Error != "" {
				t.Fatalf("result %d: %s", i, r.Error)
			}
		}
		return res
	}
	send()
	if got := p.Stats().Invocations; got != 3 {
		t.Fatalf("first batch executed %d invocations, want 3", got)
	}
	res := send() // full resend: all three answered from the dedup table
	for i, r := range res {
		if got := string(r.Outputs["Result"][0].Data); got != fmt.Sprintf("V%d", i) {
			t.Fatalf("resent result %d = %q", i, got)
		}
	}
	st := p.Stats()
	if st.Invocations != 3 || st.DedupHits != 3 {
		t.Fatalf("after resend: invocations=%d hits=%d, want 3/3", st.Invocations, st.DedupHits)
	}
}

// TestBatchPerRequestBodyKeys: body keys win over the header and
// partial keying leaves unkeyed requests re-executable.
func TestBatchPerRequestBodyKeys(t *testing.T) {
	p, srv := newUpperServer(t)
	reqs := []wire.BatchRequest{
		{Key: "solo-a", Inputs: map[string][]wire.Item{"In": {{Name: "x", Data: []byte("a")}}}},
		{Inputs: map[string][]wire.Item{"In": {{Name: "x", Data: []byte("b")}}}},
	}
	body, _ := json.Marshal(reqs)
	for round := 0; round < 2; round++ {
		resp, err := http.Post(srv.URL+"/invoke-batch/U", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var res []wire.BatchResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || len(res) != 2 || res[0].Error != "" || res[1].Error != "" {
			t.Fatalf("round %d: %+v err %v", round, res, err)
		}
	}
	st := p.Stats()
	// Keyed request ran once; the unkeyed one ran both rounds.
	if st.Invocations != 3 || st.DedupHits != 1 {
		t.Fatalf("invocations=%d hits=%d, want 3/1", st.Invocations, st.DedupHits)
	}
}

// TestBinaryBatchKeyedResendByteIdentical: a keyed binary batch through
// an echo composition replies with outputs that alias the decoder's
// pooled buffers, which are recycled once the reply is flushed. The
// re-sent stream must get the first reply byte for byte, even while a
// second stream has taken those buffers from the pool and overwritten
// them: the dedup table answers from its own copy.
func TestBinaryBatchKeyedResendByteIdentical(t *testing.T) {
	batch := func(prefix string) []map[string][]dandelion.Item {
		reqs := make([]map[string][]dandelion.Item, 4)
		for i := range reqs {
			reqs[i] = map[string][]dandelion.Item{"In": {{Name: "i", Data: []byte(fmt.Sprintf("%s-%d", prefix, i))}}}
		}
		return reqs
	}
	keyed := encodeBatchBinary(t, batch("first"))
	other := encodeBatchBinary(t, batch("other"))
	// cut is the length of other's header and first record.
	cut := len(encodeBatchBinary(t, batch("other")[:1])) - (len(encodeBatchBinary(t, nil)) - 2)

	// A window of 8 makes the server read past a stream's first record
	// before it executes anything. The unkeyed stream's body signals
	// once the server has consumed that record and asks for more: its
	// payload then sits in a pooled buffer (most likely the one the
	// first reply aliased), which the server holds while it waits.
	p, h := newEchoServer(t, Config{})
	p.SetAdmissionClamp(8, 0)
	held := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(IdempotencyKeyHeader) == "" {
			r.Body = &signalReader{ReadCloser: r.Body, n: cut, reached: held}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	send := func(body io.Reader, key string) ([]byte, error) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/invoke-batch/E", body)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		if key != "" {
			req.Header.Set(IdempotencyKeyHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return b, err
	}
	checkReply := func(body []byte, prefix string) {
		t.Helper()
		outs, errs := decodeResultsBinary(t, bytes.NewReader(body))
		if len(outs) != 4 {
			t.Fatalf("%s reply: %d results, want 4", prefix, len(outs))
		}
		for i := range outs {
			if got := string(outs[i]["Result"][0].Data); errs[i] != "" || got != fmt.Sprintf("%s-%d", prefix, i) {
				t.Fatalf("%s reply %d = %q %q", prefix, i, got, errs[i])
			}
		}
	}

	first, err := send(bytes.NewReader(keyed), "resend")
	if err != nil {
		t.Fatal(err)
	}
	checkReply(first, "first")

	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() }) // runs before srv.Close, which waits for this stream
	type reply struct {
		body []byte
		err  error
	}
	otherDone := make(chan reply, 1)
	go func() {
		b, err := send(pr, "")
		otherDone <- reply{b, err}
	}()
	if _, err := pw.Write(other[:cut]); err != nil {
		t.Fatal(err)
	}
	<-held

	again, err := send(bytes.NewReader(keyed), "resend")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Fatalf("re-sent reply differs from the first:\n first %q\n again %q", first, again)
	}

	if _, err := pw.Write(other[cut:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	r := <-otherDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkReply(r.body, "other")
	if st := p.Stats(); st.Invocations != 8 || st.DedupHits != 4 {
		t.Fatalf("invocations=%d hits=%d, want 8/4", st.Invocations, st.DedupHits)
	}
}

// signalReader closes reached on the first Read after at least n bytes
// have been delivered: its consumer has used them up and asks for more.
type signalReader struct {
	io.ReadCloser
	n       int
	reached chan struct{}
	once    sync.Once
}

func (s *signalReader) Read(p []byte) (int, error) {
	if s.n <= 0 {
		s.once.Do(func() { close(s.reached) })
	}
	k, err := s.ReadCloser.Read(p)
	s.n -= k
	return k, err
}

// TestInvokeDuplicateConflict: a completed key whose outputs are gone
// (journal-replayed after a restart) answers 409, the "done but
// unrepeatable" signal clients must handle.
func TestInvokeDuplicateConflict(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*dandelion.Platform, *httptest.Server) {
		t.Helper()
		p, err := dandelion.New(dandelion.Options{JournalDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RegisterFunction(dandelion.ComputeFunc{
			Name: "Upper",
			Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
				return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
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
		srv := httptest.NewServer(New(p))
		t.Cleanup(srv.Close)
		return p, srv
	}
	p1, srv1 := boot()
	if code, body := post(t, srv1.URL+"/invoke/U?input=In",
		map[string]string{IdempotencyKeyHeader: "once"}, []byte("x")); code != 200 {
		t.Fatalf("keyed invoke: %d %q", code, body)
	}
	p1.Shutdown()
	srv1.Close()

	p2, srv2 := boot()
	t.Cleanup(p2.Shutdown)
	code, body := post(t, srv2.URL+"/invoke/U?input=In",
		map[string]string{IdempotencyKeyHeader: "once"}, []byte("x"))
	if code != http.StatusConflict {
		t.Fatalf("replayed key: %d %q, want 409", code, body)
	}
	if got := p2.Stats().Invocations; got != 0 {
		t.Fatalf("replayed key executed %d invocations", got)
	}
}

// TestAdminClampPersistsAcrossRestart: an admission clamp set over
// PUT /admin/engines on a journaled node must survive a restart — the
// handler has to route through the platform's journaling setter, not
// mutate the admission plane directly.
func TestAdminClampPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*dandelion.Platform, *httptest.Server) {
		t.Helper()
		p, err := dandelion.New(dandelion.Options{JournalDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewWithConfig(p, Config{AdminToken: "sekrit"}))
		t.Cleanup(srv.Close)
		return p, srv
	}
	putClamp := func(srv *httptest.Server) map[string]any {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/admin/engines",
			strings.NewReader(`{"admission_min":2,"admission_max":8}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Admin-Token", "sekrit")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil || resp.StatusCode != 200 {
			t.Fatalf("PUT /admin/engines: %d, err %v", resp.StatusCode, err)
		}
		return view
	}
	p1, srv1 := boot()
	if view := putClamp(srv1); view["admission_min"] != 2.0 || view["admission_max"] != 8.0 {
		t.Fatalf("clamp readback: %v", view)
	}
	p1.Shutdown()
	srv1.Close()

	p2, _ := boot()
	t.Cleanup(p2.Shutdown)
	if min, max := p2.Admission().Clamp(); min != 2 || max != 8 {
		t.Fatalf("clamp after restart = (%d,%d), want (2,8)", min, max)
	}
}

// TestStatsReportJournalGauges: /stats carries the journal and dedup
// gauges (zero-valued but present without a journal).
func TestStatsReportJournalGauges(t *testing.T) {
	_, srv := newUpperServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"JournalEnabled", "JournalAppends", "JournalReplayed", "DedupHits", "DedupEntries"} {
		if _, ok := st[field]; !ok {
			t.Fatalf("/stats missing %s: %v", field, st)
		}
	}
	if on, _ := st["JournalEnabled"].(bool); on {
		t.Fatal("JournalEnabled true on a journal-less platform")
	}
}
