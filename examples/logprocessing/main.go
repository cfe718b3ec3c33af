// Command logprocessing runs the paper's Figure 3 application end to
// end: a composition that authenticates against an auth service, fans
// out HTTP fetches to the authorized log shards, and renders the
// results into one HTML page. The auth service and log shards run as
// real HTTP servers on loopback.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"dandelion"
	"dandelion/internal/services"
)

func main() {
	// Infrastructure: three log shards and an auth service.
	var shardURLs []string
	for i := 0; i < 3; i++ {
		shard := &services.LogShard{
			Name: fmt.Sprintf("shard%d", i),
			Lines: []string{
				fmt.Sprintf("GET /api/items %d00", 2+i),
				fmt.Sprintf("POST /api/orders 20%d", i),
			},
		}
		srv, err := services.StartLogShard(shard)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		shardURLs = append(shardURLs, srv.URL()+"/logs")
	}
	auth := services.NewAuthService()
	auth.Grant("token-42", shardURLs)
	authSrv, err := services.StartAuthService(auth)
	if err != nil {
		log.Fatal(err)
	}
	defer authSrv.Close()

	// The platform, with the PI-controller core balancer on.
	p, err := dandelion.New(dandelion.Options{Balance: true})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "Access", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		token := string(in[0].Items[0].Data)
		req := dandelion.HTTPRequest("POST", authSrv.URL()+"/auth", nil, []byte(token))
		return []dandelion.Set{{Name: "HTTPRequest", Items: []dandelion.Item{{Name: "auth", Data: req}}}}, nil
	}}))
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "FanOut", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		resp, err := dandelion.ParseHTTPResponse(in[0].Items[0].Data)
		if err != nil {
			return nil, err
		}
		if resp.Status != 200 {
			return nil, fmt.Errorf("auth failed with status %d", resp.Status)
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
	}}))
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "Render", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		var b strings.Builder
		b.WriteString("<html><body>\n")
		for _, s := range in {
			for _, it := range s.Items {
				resp, err := dandelion.ParseHTTPResponse(it.Data)
				if err != nil {
					return nil, err
				}
				if resp.Status == 200 {
					b.WriteString("<pre>\n" + string(resp.Body) + "</pre>\n")
				} else {
					fmt.Fprintf(&b, "<p>shard error: %d</p>\n", resp.Status)
				}
			}
		}
		b.WriteString("</body></html>")
		return []dandelion.Set{{Name: "HTMLOutput", Items: []dandelion.Item{
			{Name: "page", Data: []byte(b.String())},
		}}}, nil
	}}))

	// Listing 2 of the paper, verbatim.
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
		log.Fatal(err)
	}

	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "RenderLogs", Inputs: map[string][]dandelion.Item{
		"AccessToken": {{Name: "t", Data: []byte("token-42")}},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out["HTMLOutput"][0].Data))
}
