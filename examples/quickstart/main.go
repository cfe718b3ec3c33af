// Command quickstart is the smallest end-to-end Dandelion program:
// register a compute function, express a composition in the DSL, invoke
// it, and print the result.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dandelion"
)

func main() {
	p, err := dandelion.New(dandelion.Options{Backend: "cheri"})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()

	// A pure compute function via the native SDK: no I/O, inputs and
	// outputs flow through sets.
	err = p.RegisterFunction(dandelion.ComputeFunc{
		Name: "Shout",
		Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
			out := dandelion.Set{Name: "Out"}
			for _, s := range in {
				for _, it := range s.Items {
					out.Items = append(out.Items, dandelion.Item{
						Name: it.Name,
						Data: []byte(strings.ToUpper(string(it.Data)) + "!"),
					})
				}
			}
			return []dandelion.Set{out}, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The composition DAG: one each-distributed stage, so every item
	// gets its own function instance (its own sandbox).
	if _, err := p.RegisterCompositionText(`
composition ShoutAll(Words) => Result {
    Shout(w = each Words) => (Result = Out);
}`); err != nil {
		log.Fatal(err)
	}

	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "ShoutAll", Inputs: map[string][]dandelion.Item{
		"Words": {
			{Name: "w0", Data: []byte("dandelion")},
			{Name: "w1", Data: []byte("is")},
			{Name: "w2", Data: []byte("elastic")},
		},
	}})
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range out["Result"] {
		fmt.Println(string(it.Data))
	}
	st := p.Stats()
	fmt.Printf("invocations=%d compute_engines=%d comm_engines=%d\n",
		st.Invocations, st.ComputeEngines, st.CommEngines)
}
