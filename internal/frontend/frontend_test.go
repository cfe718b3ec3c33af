package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dandelion"
	"dandelion/internal/autoscale"
	"dandelion/internal/dvm"
)

func newServer(t *testing.T) (*dandelion.Platform, *httptest.Server) {
	t.Helper()
	p, err := dandelion.New(dandelion.Options{CacheBinaries: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	srv := httptest.NewServer(New(p))
	t.Cleanup(srv.Close)
	return p, srv
}

func post(t *testing.T, url string, headers map[string]string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestRegisterAndInvokeOverHTTP(t *testing.T) {
	_, srv := newServer(t)

	// Register a dvm echo function with its output-set mapping.
	code, body := post(t, srv.URL+"/register/function/Echo",
		map[string]string{"X-Memory-Bytes": "4096", "X-Output-Sets": "Copy"},
		dvm.EchoProgram().Encode())
	if code != 200 {
		t.Fatalf("register function: %d %s", code, body)
	}

	code, body = post(t, srv.URL+"/register/composition", nil, []byte(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`))
	if code != 200 || !strings.Contains(body, "E") {
		t.Fatalf("register composition: %d %s", code, body)
	}

	code, body = post(t, srv.URL+"/invoke/E?input=In", nil, []byte("over the wire"))
	if code != 200 || body != "over the wire" {
		t.Fatalf("invoke: %d %q", code, body)
	}

	// Explicit output selection.
	code, body = post(t, srv.URL+"/invoke/E?input=In&output=Result", nil, []byte("x"))
	if code != 200 || body != "x" {
		t.Fatalf("invoke with output: %d %q", code, body)
	}
	code, _ = post(t, srv.URL+"/invoke/E?input=In&output=Ghost", nil, []byte("x"))
	if code != http.StatusNotFound {
		t.Fatalf("unknown output: %d", code)
	}
}

// A binary registered over HTTP whose accesses end past MaxInt64 is
// answered with an error, and the node keeps serving: untrusted code
// must not be able to panic the process.
func TestHostileBinaryDoesNotKillNode(t *testing.T) {
	_, srv := newServer(t)
	hostile := map[string]string{
		"Load":  "li r1, 0x7ffffffffffffffc\nld r2, r1, 0\nhalt\n",
		"Write": "li r1, 0\nli r2, 1\nli r3, 0x7fffffffffffffff\nli r4, 0\nhost 5\nhalt\n",
	}
	fns := map[string][]byte{"Echo": dvm.EchoProgram().Encode()}
	for name, src := range hostile {
		p, err := dvm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		fns[name] = p.Encode()
	}
	for name, bin := range fns {
		code, body := post(t, srv.URL+"/register/function/"+name,
			map[string]string{"X-Memory-Bytes": "64", "X-Output-Sets": "Out"}, bin)
		if code != 200 {
			t.Fatalf("register %s: %d %s", name, code, body)
		}
		code, body = post(t, srv.URL+"/register/composition", nil, []byte(fmt.Sprintf(
			"composition C%s(In) => Result { %s(x = all In) => (Result = Out); }", name, name)))
		if code != 200 {
			t.Fatalf("register composition C%s: %d %s", name, code, body)
		}
	}
	for name := range hostile {
		code, body := post(t, srv.URL+"/invoke/C"+name+"?input=In", nil, []byte("12345678"))
		if code != http.StatusInternalServerError || !strings.Contains(body, "out of bounds") {
			t.Fatalf("invoke C%s = %d %q, want 500 with a memory fault", name, code, body)
		}
		code, body = post(t, srv.URL+"/invoke/CEcho?input=In", nil, []byte("still here"))
		if code != 200 || body != "still here" {
			t.Fatalf("echo after C%s = %d %q", name, code, body)
		}
	}
}

func TestFrontendErrors(t *testing.T) {
	_, srv := newServer(t)
	cases := []struct {
		url  string
		hdrs map[string]string
		body []byte
		want int
	}{
		{srv.URL + "/register/function/", nil, nil, http.StatusBadRequest},
		{srv.URL + "/register/function/Bad", nil, []byte("garbage"), http.StatusBadRequest},
		{srv.URL + "/register/function/Bad", map[string]string{"X-Memory-Bytes": "abc"}, dvm.EchoProgram().Encode(), http.StatusBadRequest},
		{srv.URL + "/register/function/Bad", map[string]string{"X-Gas-Limit": "xyz"}, dvm.EchoProgram().Encode(), http.StatusBadRequest},
		{srv.URL + "/register/composition", nil, []byte("not dsl"), http.StatusBadRequest},
		{srv.URL + "/invoke/Ghost?input=In", nil, []byte("x"), http.StatusBadRequest},
		{srv.URL + "/invoke/", nil, nil, http.StatusBadRequest},
		{srv.URL + "/invoke/E", nil, nil, http.StatusBadRequest}, // missing input param
	}
	for _, c := range cases {
		code, _ := post(t, c.url, c.hdrs, c.body)
		if code != c.want {
			t.Errorf("POST %s = %d, want %d", c.url, code, c.want)
		}
	}
	// GET on POST-only endpoints.
	resp, err := http.Get(srv.URL + "/register/composition")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET register = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, srv := newServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(b), "ComputeEngines") {
		t.Fatalf("stats = %d %s", resp.StatusCode, b)
	}
}

// TestDynamicCompositionSpawn exercises §4.1's dynamic control flow: a
// composition spawns another composition by calling the frontend's own
// invoke endpoint through the HTTP communication function.
func TestDynamicCompositionSpawn(t *testing.T) {
	p, srv := newServer(t)

	// Inner composition: upper-case.
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Upper", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
			{Name: "u", Data: []byte(strings.ToUpper(string(in[0].Items[0].Data)))},
		}}}, nil
	}})
	// Outer: a compute function forms a request to the frontend, HTTP
	// carries it, a second compute function unwraps the response.
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Spawn", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		req := dandelion.HTTPRequest("POST", srv.URL+"/invoke/Inner?input=In", nil, in[0].Items[0].Data)
		return []dandelion.Set{{Name: "Request", Items: []dandelion.Item{{Name: "r", Data: req}}}}, nil
	}})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Unwrap", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		resp, err := dandelion.ParseHTTPResponse(in[0].Items[0].Data)
		if err != nil {
			return nil, err
		}
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{{Name: "u", Data: resp.Body}}}}, nil
	}})
	if _, err := p.RegisterCompositionText(`
composition Inner(In) => Result {
    Upper(x = all In) => (Result = Out);
}
composition Outer(In) => Result {
    Spawn(x = all In) => (req = Request);
    HTTP(Request = each req) => (resp = Response);
    Unwrap(x = all resp) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	code, body := post(t, srv.URL+"/invoke/Outer?input=In", nil, []byte("nested"))
	if code != 200 || body != "NESTED" {
		t.Fatalf("dynamic spawn = %d %q", code, body)
	}
}

// TestServeBatchEndToEnd is the serving-path integration test: a real
// Platform behind frontend.New via httptest, function + composition
// registered over the wire, then driven through both Platform.InvokeBatch
// and POST /invoke-batch/, with /stats gauges asserted at the end.
func TestServeBatchEndToEnd(t *testing.T) {
	p, srv := newServer(t)

	// Register the dvm echo function and a composition over HTTP.
	code, body := post(t, srv.URL+"/register/function/Echo",
		map[string]string{"X-Memory-Bytes": "65536", "X-Output-Sets": "Copy"},
		dvm.EchoProgram().Encode())
	if code != 200 {
		t.Fatalf("register function: %d %s", code, body)
	}
	code, body = post(t, srv.URL+"/register/composition", nil, []byte(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`))
	if code != 200 {
		t.Fatalf("register composition: %d %s", code, body)
	}

	// Drive the SDK batch API directly.
	payloads := make([][]byte, 6)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("sdk-%d", i))
	}
	results := p.InvokeBatch(context.Background(), dandelion.BatchOf("", "E", "In", payloads...))
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("InvokeBatch[%d]: %v", i, res.Err)
		}
		if got := string(res.Outputs["Result"][0].Data); got != string(payloads[i]) {
			t.Fatalf("InvokeBatch[%d] echoed %q", i, got)
		}
	}

	// Drive the HTTP batch route, including one failing request mixed in.
	type wireReq struct {
		Inputs map[string][]map[string]any `json:"inputs"`
	}
	mkReq := func(set, payload string) wireReq {
		return wireReq{Inputs: map[string][]map[string]any{
			set: {{"name": "item0", "data": []byte(payload)}},
		}}
	}
	batch := []wireReq{
		mkReq("In", "http-0"),
		mkReq("Wrong", "http-1"), // missing composition input -> per-request error
		mkReq("In", "http-2"),
	}
	buf, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	code, body = post(t, srv.URL+"/invoke-batch/E", map[string]string{"Content-Type": "application/json"}, buf)
	if code != 200 {
		t.Fatalf("invoke-batch: %d %s", code, body)
	}
	var res []struct {
		Outputs map[string][]struct {
			Name string `json:"name"`
			Data []byte `json:"data"`
		} `json:"outputs"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("batch response not JSON: %v\n%s", err, body)
	}
	if len(res) != 3 {
		t.Fatalf("got %d batch results, want 3", len(res))
	}
	if res[0].Error != "" || string(res[0].Outputs["Result"][0].Data) != "http-0" {
		t.Fatalf("result 0 = %+v", res[0])
	}
	if res[1].Error == "" || !strings.Contains(res[1].Error, "missing composition input") {
		t.Fatalf("result 1 error = %q", res[1].Error)
	}
	if res[2].Error != "" || string(res[2].Outputs["Result"][0].Data) != "http-2" {
		t.Fatalf("result 2 = %+v", res[2])
	}

	// Bad routes and bodies.
	code, _ = post(t, srv.URL+"/invoke-batch/", nil, []byte("[]"))
	if code != http.StatusBadRequest {
		t.Fatalf("missing composition name = %d", code)
	}
	code, _ = post(t, srv.URL+"/invoke-batch/E", nil, []byte("not json"))
	if code != http.StatusBadRequest {
		t.Fatalf("bad body = %d", code)
	}
	resp, err := http.Get(srv.URL + "/invoke-batch/E")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET invoke-batch = %d", resp.StatusCode)
	}

	// /stats must reflect both batches and all successful + failed
	// invocations: 6 SDK + 3 HTTP requests, 2 batches.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats dandelion.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Invocations != 9 {
		t.Fatalf("stats.Invocations = %d, want 9", stats.Invocations)
	}
	if stats.Batches != 2 {
		t.Fatalf("stats.Batches = %d, want 2", stats.Batches)
	}
	if stats.CachedPrograms != 1 {
		t.Fatalf("stats.CachedPrograms = %d, want 1", stats.CachedPrograms)
	}
	if stats.ComputeEngines < 1 {
		t.Fatalf("stats.ComputeEngines = %d", stats.ComputeEngines)
	}
}

// TestTenantHeaderRoundTrip threads X-Tenant from the HTTP edge to the
// scheduling plane's per-tenant gauges and back out via /stats.
func TestTenantHeaderRoundTrip(t *testing.T) {
	p, srv := newServer(t)
	if err := p.RegisterFunction(dandelion.ComputeFunc{Name: "Echo", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	// One invoke as alice, one batch as bob, one untagged invoke.
	code, body := post(t, srv.URL+"/invoke/E?input=In", map[string]string{"X-Tenant": "alice"}, []byte("hi"))
	if code != 200 || body != "hi" {
		t.Fatalf("alice invoke = %d %q", code, body)
	}
	batch := []byte(`[{"inputs":{"In":[{"name":"i0","data":"aGk="}]}},{"inputs":{"In":[{"name":"i1","data":"aGk="}]}}]`)
	code, body = post(t, srv.URL+"/invoke-batch/E", map[string]string{"X-Tenant": "bob"}, batch)
	if code != 200 {
		t.Fatalf("bob batch = %d %s", code, body)
	}
	code, body = post(t, srv.URL+"/invoke/E?input=In", nil, []byte("anon"))
	if code != 200 || body != "anon" {
		t.Fatalf("default invoke = %d %q", code, body)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats dandelion.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// Dispatched, not Completed: a task's slot is released only after
	// its body returns, so Completed can lag the last response by one.
	dispatched := map[string]uint64{}
	for _, ts := range stats.Tenants {
		dispatched[ts.Tenant] = ts.Dispatched
	}
	for _, tenant := range []string{"alice", "bob", dandelion.DefaultTenant} {
		if dispatched[tenant] < 1 {
			t.Fatalf("%s dispatched = %d, want >= 1 (tenants: %+v)", tenant, dispatched[tenant], stats.Tenants)
		}
	}
}

// TestBatchErrorPaths pins the hardened /invoke-batch error contract:
// JSON error bodies on 400s and consistent 405s with Allow headers.
func TestBatchErrorPaths(t *testing.T) {
	_, srv := newServer(t)

	// Register E: the unknown-composition check runs before the body is
	// decoded (cheap 4xx for misaddressed requests), so the malformed-
	// body case below needs a real composition to reach the decoder.
	code0, body0 := post(t, srv.URL+"/register/function/Echo",
		map[string]string{"X-Output-Sets": "Copy"}, dvm.EchoProgram().Encode())
	if code0 != 200 {
		t.Fatalf("register function: %d %s", code0, body0)
	}
	code0, body0 = post(t, srv.URL+"/register/composition", nil, []byte(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`))
	if code0 != 200 {
		t.Fatalf("register composition: %d %s", code0, body0)
	}

	assertJSONError := func(code int, body string, wantCode int, wantSub string) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("status = %d, want %d (%s)", code, wantCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Fatalf("body %q is not a JSON error", body)
		}
		if !strings.Contains(e.Error, wantSub) {
			t.Fatalf("error %q does not mention %q", e.Error, wantSub)
		}
	}

	code, body := post(t, srv.URL+"/invoke-batch/E", nil, []byte("{not json"))
	assertJSONError(code, body, http.StatusBadRequest, "bad batch body")

	code, body = post(t, srv.URL+"/invoke-batch/Ghost", nil, []byte("[]"))
	assertJSONError(code, body, http.StatusBadRequest, "unknown composition")

	code, body = post(t, srv.URL+"/invoke-batch/", nil, []byte("[]"))
	assertJSONError(code, body, http.StatusBadRequest, "invoke-batch")

	// Wrong methods: 405 + Allow on every route, including GET-only /stats.
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/invoke-batch/E", "POST"},
		{http.MethodGet, "/invoke/E", "POST"},
		{http.MethodGet, "/register/function/F", "POST"},
		{http.MethodGet, "/register/composition", "POST"},
		{http.MethodPost, "/stats", "GET"},
		{http.MethodDelete, "/invoke-batch/E", "POST"},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		assertJSONError(resp.StatusCode, string(b), http.StatusMethodNotAllowed, c.allow)
	}
}

// TestBatchAdmissionSplitsOversizedBody: an oversized client batch is
// driven through multiple window-sized InvokeBatch calls (visible as
// the platform's Batches counter), with results still in order.
func TestBatchAdmissionSplitsOversizedBody(t *testing.T) {
	p, err := dandelion.New(dandelion.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	// A tight admission ceiling forces splitting regardless of demand.
	adm := autoscale.NewAdmission(autoscale.AdmissionConfig{MaxBatch: 4})
	srv := httptest.NewServer(NewWithConfig(p, Config{Admission: adm}))
	t.Cleanup(srv.Close)

	if err := p.RegisterFunction(dandelion.ComputeFunc{Name: "Echo", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Out", Items: in[0].Items}}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	var reqs []WireBatchRequest
	for i := 0; i < 10; i++ {
		reqs = append(reqs, WireBatchRequest{Inputs: map[string][]WireItem{
			"In": {{Name: "i", Data: []byte{byte('a' + i)}}},
		}})
	}
	buf, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, srv.URL+"/invoke-batch/E", nil, buf)
	if code != 200 {
		t.Fatalf("batch = %d %s", code, body)
	}
	var res []WireBatchResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("results = %d, want 10", len(res))
	}
	for i, r := range res {
		if r.Error != "" || len(r.Outputs["Result"]) != 1 || r.Outputs["Result"][0].Data[0] != byte('a'+i) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	// 10 requests through a window of 4 → ceil(10/4) = 3 platform batches.
	if st := p.Stats(); st.Batches != 3 {
		t.Fatalf("platform batches = %d, want 3", st.Batches)
	}
}
