package storagefn

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"dandelion/internal/memctx"
	"dandelion/internal/model/services"
)

func TestFormatParseOpRoundTrip(t *testing.T) {
	cases := []struct {
		verb, bucket, key string
		payload           []byte
	}{
		{"GET", "bkt", "key1", nil},
		{"PUT", "bkt", "a.b-c_d", []byte("payload\nwith\nnewlines")},
		{"DELETE", "bkt", "k", nil},
		{"LIST", "bkt", "", nil},
	}
	for _, c := range cases {
		op, err := ParseOp(FormatOp(c.verb, c.bucket, c.key, c.payload))
		if err != nil {
			t.Fatalf("%s: %v", c.verb, err)
		}
		if op.Verb != c.verb || op.Bucket != c.bucket || op.Key != c.key {
			t.Fatalf("%s: parsed %+v", c.verb, op)
		}
		if c.verb == "PUT" && !bytes.Equal(op.Payload, c.payload) {
			t.Fatalf("payload mismatch: %q", op.Payload)
		}
	}
}

func TestParseOpRejects(t *testing.T) {
	cases := []struct {
		item string
		want error
	}{
		{"", ErrBadOp},
		{"GET", ErrBadOp},
		{"STEAL bkt/key", ErrBadOp},
		{"GET bucketonly", ErrBadOp},
		{"GET /key", ErrBadOp},
		{"GET bkt/", ErrBadOp},
		{"GET bkt/key extra", ErrBadOp},
		{"GET b!d/key", ErrBadPath},
		{"GET bkt/key$", ErrBadPath},
		{"LIST bad bucket", ErrBadOp},
		{"DELETE bkt/key\npayload", ErrBadOp},
	}
	for _, c := range cases {
		if _, err := ParseOp([]byte(c.item)); !errors.Is(err, c.want) {
			t.Errorf("ParseOp(%q) err = %v, want %v", c.item, err, c.want)
		}
	}
}

func TestCheckNameTraversal(t *testing.T) {
	for _, s := range []string{"../etc", "a/b", "a b", "", string(make([]byte, 300))} {
		if err := checkName(s); err == nil {
			t.Errorf("checkName(%q) accepted", s)
		}
	}
}

func TestInvokeAgainstObjectStore(t *testing.T) {
	store := services.NewObjectStore()
	srv, err := services.StartObjectStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store.Put("bkt", "existing", []byte("hello"))

	fn := &Function{BaseURL: srv.URL()}
	if fn.Name() != "Storage" || fn.InputSets()[0] != "Ops" || fn.OutputSets()[0] != "Results" {
		t.Fatal("metadata")
	}
	inputs := []memctx.Set{{Name: "Ops", Items: []memctx.Item{
		{Name: "put", Data: FormatOp("PUT", "bkt", "new", []byte("fresh data"))},
		{Name: "get", Data: FormatOp("GET", "bkt", "existing", nil)},
		{Name: "miss", Data: FormatOp("GET", "bkt", "nope", nil)},
		{Name: "list", Data: FormatOp("LIST", "bkt", "", nil)},
		{Name: "del", Data: FormatOp("DELETE", "bkt", "existing", nil)},
	}}}
	out, err := fn.Invoke(inputs)
	if err != nil {
		t.Fatal(err)
	}
	items := out[0].Items
	if len(items) != 5 {
		t.Fatalf("results = %d", len(items))
	}
	if ok, _ := ParseResult(items[0].Data); !ok {
		t.Fatalf("PUT failed: %q", items[0].Data)
	}
	ok, payload := ParseResult(items[1].Data)
	if !ok || string(payload) != "hello" {
		t.Fatalf("GET = %v %q", ok, payload)
	}
	if ok, _ := ParseResult(items[2].Data); ok {
		t.Fatalf("missing GET reported OK: %q", items[2].Data)
	}
	ok, listing := ParseResult(items[3].Data)
	if !ok || !bytes.Contains(listing, []byte("existing")) || !bytes.Contains(listing, []byte("new")) {
		t.Fatalf("LIST = %v %q", ok, listing)
	}
	if ok, _ := ParseResult(items[4].Data); !ok {
		t.Fatalf("DELETE failed: %q", items[4].Data)
	}
	// Side effects really happened.
	if got, found := store.Get("bkt", "new"); !found || string(got) != "fresh data" {
		t.Fatal("PUT did not store")
	}
	if _, found := store.Get("bkt", "existing"); found {
		t.Fatal("DELETE did not remove")
	}
}

func TestInvokeMalformedOpAborts(t *testing.T) {
	fn := &Function{BaseURL: "http://127.0.0.1:1"}
	_, err := fn.Invoke([]memctx.Set{{Name: "Ops", Items: []memctx.Item{
		{Name: "x", Data: []byte("HACK ../../etc")},
	}}})
	if !errors.Is(err, ErrBadOp) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fn.Invoke([]memctx.Set{{Name: "A"}, {Name: "B"}}); err == nil {
		t.Fatal("missing Ops accepted")
	}
}

func TestInvokeNetworkFailureIsData(t *testing.T) {
	fn := &Function{BaseURL: "http://127.0.0.1:1"}
	out, err := fn.Invoke([]memctx.Set{{Name: "Ops", Items: []memctx.Item{
		{Name: "g", Data: FormatOp("GET", "bkt", "k", nil)},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ParseResult(out[0].Items[0].Data); ok {
		t.Fatal("unreachable store reported OK")
	}
}

// Property: PUT payload bytes survive format/parse exactly.
func TestPutPayloadProperty(t *testing.T) {
	f := func(payload []byte) bool {
		op, err := ParseOp(FormatOp("PUT", "b", "k", payload))
		if err != nil {
			return false
		}
		if payload == nil {
			return len(op.Payload) == 0
		}
		return bytes.Equal(op.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
