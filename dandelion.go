// Package dandelion is the public API of Dandelion-Go, a from-scratch
// reproduction of "Unlocking True Elasticity for the Cloud-Native Era
// with Dandelion" (SOSP 2025).
//
// Dandelion is an elastic cloud platform with a declarative cloud-native
// programming model: applications are DAGs ("compositions") of pure
// compute functions and platform-provided communication functions.
// Compute functions run in lightweight per-request sandboxes that cold
// start in microseconds; communication functions (HTTP) run on trusted
// cooperative engines; a PI controller re-balances CPU cores between
// the two.
//
// Quickstart:
//
//	p, _ := dandelion.New(dandelion.Options{})
//	defer p.Shutdown()
//	p.RegisterFunction(dandelion.ComputeFunc{
//	    Name: "Greet",
//	    Go: func(in []dandelion.Set) ([]dandelion.Set, error) {
//	        name := string(in[0].Items[0].Data)
//	        return []dandelion.Set{{Name: "Out", Items: []dandelion.Item{
//	            {Name: "greeting", Data: []byte("hello " + name)},
//	        }}}, nil
//	    },
//	})
//	p.RegisterCompositionText(`
//	composition Hello(Name) => Greeting {
//	    Greet(x = all Name) => (Greeting = Out);
//	}`)
//	out, _ := p.Invoke(context.Background(), dandelion.Request{
//	    Composition: "Hello",
//	    Inputs: map[string][]dandelion.Item{
//	        "Name": {{Name: "n", Data: []byte("world")}},
//	    },
//	})
//	fmt.Println(string(out["Greeting"][0].Data))
package dandelion

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"dandelion/internal/core"
	"dandelion/internal/ctlplane"
	"dandelion/internal/httpfn"
	"dandelion/internal/isolation"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
	"dandelion/internal/storagefn"
)

// Item is one data item flowing through a composition.
type Item = memctx.Item

// Set is a named collection of items, the unit of dataflow.
type Set = memctx.Set

// ComputeFunc describes a compute function to register: either a dvm
// binary (untrusted, sandboxed) or a native-SDK Go body.
type ComputeFunc = core.ComputeFunc

// GoFunc is a native-SDK compute function body.
type GoFunc = core.GoFunc

// CommFunc is the interface of platform communication functions.
type CommFunc = core.CommFunc

// Stats snapshots platform gauges.
type Stats = core.Stats

// TenantStats is one tenant's scheduling-plane gauges, reported under
// Stats.Tenants: queued/running/completed task counts and dispatch-wait
// average, p99, and max.
type TenantStats = sched.TenantStats

// DefaultTenant is the identity invocations run under when none is
// given: requests without a Tenant, and HTTP requests without an
// X-Tenant header.
const DefaultTenant = core.DefaultTenant

// ErrDraining rejects new invocations while a node drains (see
// Platform.Drain / POST /admin/drain); in-flight work completes.
var ErrDraining = core.ErrDraining

// ErrDuplicate answers a keyed invocation whose idempotency key already
// completed but whose cached outputs are gone (evicted, or the key was
// recovered from a journal replay after a restart) — the work is done;
// re-executing would break exactly-once. See docs/JOURNAL.md.
var ErrDuplicate = core.ErrDuplicate

// ErrInFlight answers a keyed invocation whose key is currently
// executing; the caller retries after the first execution settles.
var ErrInFlight = core.ErrInFlight

// ErrExpired rejects a scheduled task whose deadline passed while it
// waited in a queue — dropped at dispatch time, never executed. See
// docs/ROBUSTNESS.md.
var ErrExpired = core.ErrExpired

// IsTimeout reports whether an invocation error is deadline-class: the
// caller's context deadline was exceeded mid-flight, or the work was
// dropped expired before dispatch (ErrExpired). The HTTP frontend maps
// such errors to 504.
func IsTimeout(err error) bool { return core.IsTimeout(err) }

// Request is one composition invocation — the argument of
// Platform.Invoke and the element of a Platform.InvokeBatch call. It
// names the composition, the tenant it is scheduled under (empty means
// DefaultTenant), an optional idempotency key (see docs/JOURNAL.md),
// and the inputs; the deadline lives in the call's context.
type Request = core.Request

// Result is the per-request outcome of a batched invocation; requests
// fail independently.
type Result = core.Result

// Region is a reference-counted lease on externally pooled memory that
// a Request's inputs alias (Request.Borrow): the release
// hook — typically a decoder-buffer recycle — fires exactly once, when
// the creator and every compute context that borrowed the memory have
// all released. See memctx's borrowed-region docs.
type Region = memctx.Region

// NewRegion wraps a release hook in a region holding the creator's
// reference; pair it with Region.Release after the results that alias
// the memory have been consumed.
func NewRegion(release func()) *Region { return memctx.NewRegion(release) }

// Options configures a platform node.
type Options struct {
	// Backend selects the compute isolation backend: "cheri" (default),
	// "rwasm", "process", or "kvm".
	Backend string
	// ComputeEngines and CommEngines size the initial engine pools.
	ComputeEngines int
	CommEngines    int
	// CacheBinaries keeps decoded function binaries in memory.
	CacheBinaries bool
	// ZeroCopy hands statement outputs off between memory contexts
	// (ownership moves) instead of cloning them, on both the single
	// Invoke and the batched InvokeBatch data paths. Functions must
	// treat their input items as immutable when this is on: payloads
	// may be shared with other instances. The /stats counters
	// ZeroCopyHandoffs and ZeroCopyHandoffBytes report what it saves.
	ZeroCopy bool
	// Balance enables the PI-controller core re-balancer.
	Balance bool
	// Autoscale starts the elasticity controller: the compute-engine
	// pool grows and shrinks with queue backlog and dispatch-wait p99
	// (hysteresis on both edges), between ComputeEngines and
	// AutoscaleMax engines. Resizes are counted in Stats.EngineResizes
	// and the switch can be flipped at runtime (SetAutoscale or
	// PUT /admin/engines).
	Autoscale bool
	// AutoscaleMax bounds the compute pool under Autoscale (default
	// 4× the initial compute-engine count).
	AutoscaleMax int
	// TenantWeights seeds the scheduling plane's per-tenant DRR
	// dispatch weights; unlisted tenants get weight 1. Weights can be
	// changed at runtime via Platform.SetTenantWeight.
	TenantWeights map[string]int
	// ByteFairness charges the DRR dispatch deficit in payload bytes
	// instead of task counts: equal-weight tenants split the engines by
	// bytes moved, so a large-payload analytics flood cannot starve an
	// interactive tenant of dispatch slots. See core.Options.
	ByteFairness bool
	// HTTPClient is used by the HTTP communication function (nil
	// selects http.DefaultClient).
	HTTPClient *http.Client
	// AllowHost optionally restricts HTTP destinations.
	AllowHost func(host string) bool
	// StorageURL, when set, registers the "Storage" communication
	// function (GET/PUT/DELETE/LIST against an S3-style object store
	// at this base URL).
	StorageURL string
	// JournalDir, when set, opens (creating if needed) a durable
	// invocation journal at <JournalDir>/journal.wal: admin
	// reconfiguration and keyed-invocation outcomes are appended as they
	// happen and replayed on the next start from the same directory, so
	// a restarted node comes back with its tenant weights, engine
	// counts, admission clamp, and completed-key dedup table intact.
	// See docs/JOURNAL.md. The platform owns the journal and closes it
	// on Shutdown.
	JournalDir string
}

// Platform is one Dandelion worker node.
type Platform struct {
	*core.Platform
}

// New builds a worker node with the HTTP communication function
// pre-registered.
func New(opts Options) (*Platform, error) {
	name := opts.Backend
	if name == "" {
		name = "cheri"
	}
	backend, err := isolation.New(name)
	if err != nil {
		return nil, fmt.Errorf("dandelion: %w", err)
	}
	var jrnl journal.Journal
	if opts.JournalDir != "" {
		if err := os.MkdirAll(opts.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("dandelion: journal dir: %w", err)
		}
		jrnl, err = journal.OpenFile(filepath.Join(opts.JournalDir, "journal.wal"), journal.FileOptions{})
		if err != nil {
			return nil, fmt.Errorf("dandelion: %w", err)
		}
	}
	p, err := core.NewPlatform(core.Options{
		Journal:        jrnl,
		Backend:        backend,
		ComputeEngines: opts.ComputeEngines,
		CommEngines:    opts.CommEngines,
		CacheBinaries:  opts.CacheBinaries,
		ZeroCopy:       opts.ZeroCopy,
		Balance:        opts.Balance,
		TenantWeights:  opts.TenantWeights,
		ByteFairness:   opts.ByteFairness,
		Autoscale:      opts.Autoscale,
		Elasticity:     ctlplane.Config{Max: opts.AutoscaleMax},
	})
	if err != nil {
		if jrnl != nil {
			jrnl.Close()
		}
		return nil, fmt.Errorf("dandelion: %w", err)
	}
	httpFn := &httpfn.Function{Client: opts.HTTPClient, AllowHost: opts.AllowHost}
	if err := p.RegisterComm(httpFn); err != nil {
		p.Shutdown()
		return nil, fmt.Errorf("dandelion: %w", err)
	}
	if opts.StorageURL != "" {
		storeFn := &storagefn.Function{BaseURL: opts.StorageURL, Client: opts.HTTPClient}
		if err := p.RegisterComm(storeFn); err != nil {
			p.Shutdown()
			return nil, fmt.Errorf("dandelion: %w", err)
		}
	}
	return &Platform{Platform: p}, nil
}

// StorageOp renders an operation item for the Storage communication
// function: verb is GET, PUT, DELETE, or LIST; payload applies to PUT.
func StorageOp(verb, bucket, key string, payload []byte) []byte {
	return storagefn.FormatOp(verb, bucket, key, payload)
}

// ParseStorageResult splits a Storage result item into success flag and
// payload.
func ParseStorageResult(item []byte) (ok bool, payload []byte) {
	return storagefn.ParseResult(item)
}

// Backends lists the available isolation backend names.
func Backends() []string { return isolation.Names() }

// HTTPRequest renders a request item for the HTTP communication
// function: compute functions emit these to talk to remote services.
func HTTPRequest(method, url string, headers map[string]string, body []byte) []byte {
	return httpfn.FormatRequest(method, url, headers, body)
}

// HTTPResponse is a parsed response item.
type HTTPResponse = httpfn.Response

// ParseHTTPResponse parses a response item produced by the HTTP
// communication function.
func ParseHTTPResponse(item []byte) (*HTTPResponse, error) {
	return httpfn.ParseResponse(item)
}
