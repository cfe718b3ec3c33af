package dandelion_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/dvm"
	"dandelion/internal/model/services"
)

func newPlatform(t *testing.T, opts dandelion.Options) *dandelion.Platform {
	t.Helper()
	p, err := dandelion.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func TestQuickstartDocExample(t *testing.T) {
	p := newPlatform(t, dandelion.Options{})
	err := p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Greet",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			name := string(in[0].Items[0].Data)
			return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
				{Name: "greeting", Data: []byte("hello " + name)},
			}}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition Hello(Name) => Greeting {
    Greet(x = all Name) => (Greeting = Out);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "Hello", Inputs: map[string][]dandelion.Item{
		"Name": {{Name: "n", Data: []byte("world")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out["Greeting"][0].Data); got != "hello world" {
		t.Fatalf("greeting = %q", got)
	}
}

// Every backend name is the same sandbox (the names select only the
// model's cost profiles), so one run covers them all.
func TestDvmFunctionOnAllBackends(t *testing.T) {
	p := newPlatform(t, dandelion.Options{})
	if err := p.RegisterFunction(dandelion.ComputeFunc{
		Name:       "Echo",
		Binary:     dvm.EchoProgram().Encode(),
		MemBytes:   4096,
		OutputSets: []string{"Copy"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCompositionText(`
composition E(In) => Result {
    Echo(x = all In) => (Result = Copy);
}`); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "E", Inputs: map[string][]dandelion.Item{
		"In": {{Name: "x", Data: []byte("sandboxed")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out["Result"][0].Data) != "sandboxed" {
		t.Fatalf("bad echo %q", out["Result"][0].Data)
	}
}

// TestLogProcessingApplication runs the full Figure 3 application: an
// Access function forms an auth request, the HTTP communication
// function calls the auth service, FanOut builds one request per
// authorized log shard, HTTP fetches them in parallel, and Render
// templates everything into HTML.
func TestLogProcessingApplication(t *testing.T) {
	// Real services on loopback.
	shard1, err := services.StartLogShard(&services.LogShard{Name: "s1", Lines: []string{"GET /a 200"}})
	if err != nil {
		t.Fatal(err)
	}
	defer shard1.Close()
	shard2, err := services.StartLogShard(&services.LogShard{Name: "s2", Lines: []string{"GET /b 500"}})
	if err != nil {
		t.Fatal(err)
	}
	defer shard2.Close()
	auth := services.NewAuthService()
	auth.Grant("token-42", []string{shard1.URL() + "/logs", shard2.URL() + "/logs"})
	authSrv, err := services.StartAuthService(auth)
	if err != nil {
		t.Fatal(err)
	}
	defer authSrv.Close()

	p := newPlatform(t, dandelion.Options{})

	p.RegisterFunction(dandelion.ComputeFunc{Name: "Access", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		token := string(in[0].Items[0].Data)
		req := dandelion.HTTPRequest("POST", authSrv.URL()+"/auth", nil, []byte(token))
		return []dandelion.Set{{Name: "HTTPRequest", Items: []dandelion.Item{{Name: "auth", Data: req}}}}, nil
	}})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "FanOut", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		resp, err := dandelion.ParseHTTPResponse(in[0].Items[0].Data)
		if err != nil {
			return nil, err
		}
		if resp.Status != 200 {
			return nil, fmt.Errorf("auth failed: %d", resp.Status)
		}
		var endpoints []string
		if err := json.Unmarshal(resp.Body, &endpoints); err != nil {
			return nil, err
		}
		out := dandelion.Set{Name: "HTTPRequests"}
		for i, ep := range endpoints {
			out.Items = append(out.Items, dandelion.Item{
				Name: fmt.Sprintf("log%d", i),
				Data: dandelion.HTTPRequest("GET", ep, nil, nil),
			})
		}
		return []dandelion.Set{out}, nil
	}})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Render", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		var b strings.Builder
		b.WriteString("<html><body>")
		for _, s := range in {
			for _, it := range s.Items {
				resp, err := dandelion.ParseHTTPResponse(it.Data)
				if err != nil {
					return nil, err
				}
				if resp.Status == 200 {
					b.WriteString("<pre>" + string(resp.Body) + "</pre>")
				} else {
					fmt.Fprintf(&b, "<p>error %d</p>", resp.Status)
				}
			}
		}
		b.WriteString("</body></html>")
		return []dandelion.Set{{Name: "HTMLOutput", Items: []dandelion.Item{
			{Name: "page", Data: []byte(b.String())},
		}}}, nil
	}})

	// Listing 2, verbatim.
	if _, err := p.RegisterCompositionText(`
composition RenderLogs(AccessToken) => HTMLOutput {
    Access(AccessToken = all AccessToken)
        => (AuthRequest = HTTPRequest);
    HTTP(Request = each AuthRequest)
        => (AuthResponse = Response);
    FanOut(HTTPResponse = all AuthResponse)
        => (LogRequests = HTTPRequests);
    HTTP(Request = each LogRequests)
        => (LogResponses = Response);
    Render(HTTPResponses = all LogResponses)
        => (HTMLOutput = HTMLOutput);
}`); err != nil {
		t.Fatal(err)
	}

	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "RenderLogs", Inputs: map[string][]dandelion.Item{
		"AccessToken": {{Name: "t", Data: []byte("token-42")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	html := string(out["HTMLOutput"][0].Data)
	for _, want := range []string{"# shard s1", "# shard s2", "GET /a 200", "GET /b 500", "<html>"} {
		if !strings.Contains(html, want) {
			t.Fatalf("html missing %q:\n%s", want, html)
		}
	}

	// Bad token: auth returns 401, FanOut fails, the invocation errors.
	if _, err := p.Invoke(context.Background(), dandelion.Request{Composition: "RenderLogs", Inputs: map[string][]dandelion.Item{
		"AccessToken": {{Name: "t", Data: []byte("wrong")}},
	}}); err == nil || !strings.Contains(err.Error(), "auth failed") {
		t.Fatalf("bad token err = %v", err)
	}
}

func TestHostAllowlistEnforced(t *testing.T) {
	p := newPlatform(t, dandelion.Options{
		AllowHost: func(h string) bool { return h == "allowed.example" },
	})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Mk", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Request", Items: []dandelion.Item{
			{Name: "r", Data: dandelion.HTTPRequest("GET", "http://127.0.0.1:1/", nil, nil)},
		}}}, nil
	}})
	p.RegisterCompositionText(`
composition C(In) => Result {
    Mk(x = all In) => (req = Request);
    HTTP(Request = each req) => (Result = Response);
}`)
	_, err := p.Invoke(context.Background(), dandelion.Request{Composition: "C", Inputs: map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("x")}}}})
	if err == nil || !strings.Contains(err.Error(), "not permitted") {
		t.Fatalf("err = %v, want host denial", err)
	}
}

func TestClusterOfPlatforms(t *testing.T) {
	m := cluster.NewManager()
	for i := 0; i < 3; i++ {
		p := newPlatform(t, dandelion.Options{})
		p.RegisterFunction(dandelion.ComputeFunc{Name: "Up", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
				{Name: "r", Data: []byte(strings.ToUpper(string(in[0].Items[0].Data)))},
			}}}, nil
		}})
		p.RegisterCompositionText(`
composition U(In) => Result {
    Up(x = all In) => (Result = Out);
}`)
		if err := m.Register(fmt.Sprintf("node%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 30)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := m.Invoke(context.Background(), dandelion.Request{Composition: "U", Inputs: map[string][]dandelion.Item{
				"In": {{Name: "x", Data: []byte("dandelion")}},
			}})
			if err == nil && string(out["Result"][0].Data) != "DANDELION" {
				err = errors.New("bad result")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	total := uint64(0)
	for _, s := range m.Stats() {
		total += s.Total
	}
	if total != 30 {
		t.Fatalf("routed %d invocations", total)
	}
}

func TestStatsExposed(t *testing.T) {
	p := newPlatform(t, dandelion.Options{ComputeEngines: 3, CommEngines: 2})
	st := p.Stats()
	if st.ComputeEngines != 3 || st.CommEngines != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
