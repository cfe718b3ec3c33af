package dandelion_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"dandelion"
	"dandelion/internal/services"
)

// TestStorageCommunicationFunction uses the second communication
// function (the cloud-storage protocol) inside a composition: write a
// set of objects, read them back, and verify through the dataflow.
func TestStorageCommunicationFunction(t *testing.T) {
	store := services.NewObjectStore()
	srv, err := services.StartObjectStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := newPlatform(t, dandelion.Options{StorageURL: srv.URL()})

	p.RegisterFunction(dandelion.ComputeFunc{Name: "MakePuts", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		out := dandelion.Set{Name: "Ops"}
		for _, it := range in[0].Items {
			out.Items = append(out.Items, dandelion.Item{
				Name: it.Name,
				Data: dandelion.StorageOp("PUT", "results", it.Name, bytes.ToUpper(it.Data)),
			})
		}
		return []dandelion.Set{out}, nil
	}})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "MakeGets", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		// Only proceed if every PUT succeeded.
		out := dandelion.Set{Name: "Ops"}
		for _, it := range in[0].Items {
			if ok, _ := dandelion.ParseStorageResult(it.Data); !ok {
				return nil, fmt.Errorf("put %s failed: %s", it.Name, it.Data)
			}
			out.Items = append(out.Items, dandelion.Item{
				Name: it.Name,
				Data: dandelion.StorageOp("GET", "results", it.Name, nil),
			})
		}
		return []dandelion.Set{out}, nil
	}})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Collect", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		var parts []string
		for _, it := range in[0].Items {
			ok, payload := dandelion.ParseStorageResult(it.Data)
			if !ok {
				return nil, fmt.Errorf("get %s failed", it.Name)
			}
			parts = append(parts, string(payload))
		}
		return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
			{Name: "all", Data: []byte(strings.Join(parts, ","))},
		}}}, nil
	}})

	if _, err := p.RegisterCompositionText(`
composition RoundTrip(In) => Result {
    MakePuts(x = all In) => (puts = Ops);
    Storage(Ops = all puts) => (stored = Results);
    MakeGets(x = all stored) => (gets = Ops);
    Storage(Ops = all gets) => (fetched = Results);
    Collect(x = all fetched) => (Result = Out);
}`); err != nil {
		t.Fatal(err)
	}

	out, err := p.Invoke(context.Background(), dandelion.Request{Composition: "RoundTrip", Inputs: map[string][]dandelion.Item{
		"In": {
			{Name: "k1", Data: []byte("alpha")},
			{Name: "k2", Data: []byte("beta")},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := string(out["Result"][0].Data)
	if got != "ALPHA,BETA" {
		t.Fatalf("result = %q", got)
	}
	// Objects persisted in the store.
	if data, ok := store.Get("results", "k1"); !ok || string(data) != "ALPHA" {
		t.Fatal("object not stored")
	}
}

func TestStorageFunctionNotRegisteredWithoutURL(t *testing.T) {
	p := newPlatform(t, dandelion.Options{})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Mk", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Ops", Items: []dandelion.Item{
			{Name: "o", Data: dandelion.StorageOp("GET", "b", "k", nil)},
		}}}, nil
	}})
	p.RegisterCompositionText(`
composition C(In) => Result {
    Mk(x = all In) => (ops = Ops);
    Storage(Ops = all ops) => (Result = Results);
}`)
	_, err := p.Invoke(context.Background(), dandelion.Request{Composition: "C", Inputs: map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("x")}}}})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v, want not-registered", err)
	}
}

// TestStorageSanitizationFromComposition verifies that a malicious
// compute function cannot push a path-traversal operation through the
// trusted storage engine.
func TestStorageSanitizationFromComposition(t *testing.T) {
	store := services.NewObjectStore()
	srv, err := services.StartObjectStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := newPlatform(t, dandelion.Options{StorageURL: srv.URL()})
	p.RegisterFunction(dandelion.ComputeFunc{Name: "Evil", Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
		return []dandelion.Set{{Name: "Ops", Items: []dandelion.Item{
			{Name: "o", Data: []byte("GET ../secrets/key")},
		}}}, nil
	}})
	p.RegisterCompositionText(`
composition E(In) => Result {
    Evil(x = all In) => (ops = Ops);
    Storage(Ops = all ops) => (Result = Results);
}`)
	_, err = p.Invoke(context.Background(), dandelion.Request{Composition: "E", Inputs: map[string][]dandelion.Item{"In": {{Name: "x", Data: []byte("x")}}}})
	if err == nil || !strings.Contains(err.Error(), "invalid bucket/key") {
		t.Fatalf("err = %v, want sanitization failure", err)
	}
}
