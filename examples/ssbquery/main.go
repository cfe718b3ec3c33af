// Command ssbquery runs Star Schema Benchmark query Q1.1 as a real
// Dandelion composition (§7.7's elastic query processing): the fact
// table is uploaded in chunks to an S3-style object store; a compute
// function lists the chunks and forms HTTP GETs; the HTTP communication
// function fetches them in parallel; one Partial compute-function
// instance per chunk filters, joins, and partially aggregates; a final
// Merge instance combines the partials.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"dandelion"
	"dandelion/internal/model/services"
	"dandelion/internal/ssb"
)

func main() {
	rows := flag.Int("rows", 200_000, "fact table rows to generate")
	chunks := flag.Int("chunks", 8, "object-store chunks / parallel instances")
	flag.Parse()

	// Generate data and upload chunks to the object store.
	db := ssb.Generate(*rows, 42)
	store := services.NewObjectStore()
	srv, err := services.StartObjectStore(store)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	total := db.Facts.Len()
	for c := 0; c < *chunks; c++ {
		lo, hi := c*total / *chunks, (c+1)*total / *chunks
		store.Put("ssb", fmt.Sprintf("lineorder-%03d", c), ssb.EncodeChunk(db.Facts.Slice(lo, hi)))
	}
	fmt.Printf("uploaded %d rows in %d chunks (%d bytes)\n",
		total, *chunks, total*ssb.BytesPerRow)

	p, err := dandelion.New(dandelion.Options{ComputeEngines: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()

	plan, err := ssb.NewPlan(db, ssb.Q11)
	if err != nil {
		log.Fatal(err)
	}

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Form one GET request per chunk.
	nChunks := *chunks
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "ListChunks", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		out := dandelion.Set{Name: "Requests"}
		for c := 0; c < nChunks; c++ {
			url := fmt.Sprintf("%s/ssb/lineorder-%03d", srv.URL(), c)
			out.Items = append(out.Items, dandelion.Item{
				Name: fmt.Sprintf("chunk%03d", c),
				Data: dandelion.HTTPRequest("GET", url, nil, nil),
			})
		}
		return []dandelion.Set{out}, nil
	}}))
	// Partial aggregation over one fetched chunk.
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "Partial", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		resp, err := dandelion.ParseHTTPResponse(in[0].Items[0].Data)
		if err != nil {
			return nil, err
		}
		if resp.Status != 200 {
			return nil, fmt.Errorf("chunk fetch failed: %d", resp.Status)
		}
		chunk, err := ssb.DecodeChunk(resp.Body)
		if err != nil {
			return nil, err
		}
		g := plan.Partial(chunk)
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
			{Name: in[0].Items[0].Name, Data: g.Encode()},
		}}}, nil
	}}))
	// Merge the partials.
	must(p.RegisterFunction(dandelion.ComputeFunc{Name: "Merge", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		merged := ssb.NewGroupSum()
		for _, s := range in {
			for _, it := range s.Items {
				g, err := ssb.DecodeGroupSum(it.Data)
				if err != nil {
					return nil, err
				}
				merged.Merge(g)
			}
		}
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
			{Name: "result", Data: merged.Encode()},
		}}}, nil
	}}))

	if _, err := p.RegisterCompositionText(`
composition SSBQ11(Start) => Result {
    ListChunks(x = all Start) => (reqs = Requests);
    HTTP(Request = each reqs) => (chunks = Response);
    Partial(Chunk = each chunks) => (partials = Out);
    Merge(Partials = all partials) => (Result = Out);
}`); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "SSBQ11", Inputs: map[string][]dandelion.Item{
		"Start": {{Name: "go", Data: []byte("1")}},
	}})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	result, err := ssb.DecodeGroupSum(out["Result"][0].Data)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range result.Rows() {
		fmt.Printf("Q1.1 %s = %d (over %d rows)\n", row.Key, row.Sum, row.N)
	}
	fmt.Printf("query latency: %v (%d parallel partial instances)\n", elapsed, nChunks)

	// Cross-check against single-node execution.
	ref, _ := ssb.RunQuery(db, ssb.Q11, 1)
	if ref.Rows()[0].Sum != result.Rows()[0].Sum {
		log.Fatalf("MISMATCH: composition %d vs reference %d",
			result.Rows()[0].Sum, ref.Rows()[0].Sum)
	}
	fmt.Println("verified against single-node execution")
}
