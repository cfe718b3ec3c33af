// Package wire defines the wire forms of the HTTP serving protocol: the
// JSON types here, which travel between clients and frontends and carry
// cluster membership (Join, Heartbeat), and the binary framing in
// binary.go, the only form of the coordinator→worker hop. The frontend
// (internal/frontend) serves these shapes; the remote-worker client
// (internal/cluster.RemoteNode) and the end-to-end test harness in
// internal/loadgen speak them from the client side. Keeping them in a
// leaf package lets both ends share one definition without an import
// cycle (frontend already imports cluster).
//
// Item data travels base64-encoded (the encoding/json default for
// []byte). Field names are the protocol; changing a tag is a wire
// break. The frontend reads a whole JSON batch body, up to its body
// cap, and decodes it with DecodeBatchJSON (json.go): the compact form
// json.Marshal writes takes a one-pass scanner and every other body
// takes encoding/json, so both give the same value or the same error.
package wire

import "dandelion/internal/memctx"

// Item is one data item on the wire.
type Item struct {
	Name string `json:"name,omitempty"`
	Key  string `json:"key,omitempty"`
	Data []byte `json:"data"`
}

// BatchRequest is one request of a JSON POST /invoke-batch/ body.
type BatchRequest struct {
	Inputs map[string][]Item `json:"inputs"`
	// Key is the request's idempotency key (empty opts out): a worker
	// receiving a key it has already completed answers from its dedup
	// table instead of re-executing, which is what makes client
	// resends safe. Clients may supply their own (or use the
	// Idempotency-Key header, which the frontend expands per request).
	Key string `json:"key,omitempty"`
}

// BatchResult is one slot of a JSON batch response, in request order.
// A failed slot's Error starts with its reason token (docs/WIRE.md).
type BatchResult struct {
	Outputs map[string][]Item `json:"outputs,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// Join is the body a worker posts to /cluster/join to register with a
// coordinator: its name and the URL the coordinator dials it back on.
type Join struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// JoinReply acknowledges a join with the coordinator's current worker
// count.
type JoinReply struct {
	Workers int `json:"workers"`
}

// Heartbeat is the body a worker posts to /cluster/heartbeat each beat.
// A coordinator that does not know the name (it restarted, or evicted
// the worker) answers 404, telling the worker to re-join.
type Heartbeat struct {
	Name string `json:"name"`
}

// FromItems converts platform items to their wire shape.
func FromItems(items []memctx.Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		out[i] = Item{Name: it.Name, Key: it.Key, Data: it.Data}
	}
	return out
}

// ToItems converts wire items back to platform items.
func ToItems(items []Item) []memctx.Item {
	out := make([]memctx.Item, len(items))
	for i, it := range items {
		out[i] = memctx.Item{Name: it.Name, Key: it.Key, Data: it.Data}
	}
	return out
}

// FromSets converts a platform set map to its wire shape.
func FromSets(sets map[string][]memctx.Item) map[string][]Item {
	out := make(map[string][]Item, len(sets))
	for name, items := range sets {
		out[name] = FromItems(items)
	}
	return out
}

// ToSets converts a wire set map back to platform items.
func ToSets(sets map[string][]Item) map[string][]memctx.Item {
	out := make(map[string][]memctx.Item, len(sets))
	for name, items := range sets {
		out[name] = ToItems(items)
	}
	return out
}
