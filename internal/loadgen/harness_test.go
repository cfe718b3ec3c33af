// Package loadgen holds the end-to-end tests of the Dandelion serving
// path (cluster, journal, chaos, mixed tenants) and the closed-loop
// harness that drives them. The harness runs M concurrent clients
// against a real HTTP frontend (internal/frontend): each client issues
// its requests sequentially (the next request starts only after the
// previous response arrives), either one invocation per request through
// POST /invoke/ or a batch per request through POST /invoke-batch/,
// tagged with an X-Tenant header when Config.Tenant is set.
//
// The harness is deterministic by construction: a fixed client count,
// a fixed request count per client, and a caller-supplied payload
// function of (client, seq, index) — no randomness, no time-based
// admission. Its report counts requests, invocations, failures by
// class and bytes sent, per run and per tenant; it times nothing.
// Performance is measured by bench/ (BENCHMARK.json).
package loadgen

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dandelion/internal/memctx"
	"dandelion/internal/wire"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the frontend root, e.g. an httptest.Server URL.
	BaseURL string
	// BaseURLs, when set, drives a multi-process cluster: each request
	// round trip targets one of these frontend roots in rotation
	// (deterministically, by client and sequence number). BaseURL may
	// then be left empty. One entry behaves exactly like BaseURL.
	BaseURLs []string
	// Client issues the HTTP requests; nil selects http.DefaultClient.
	Client *http.Client
	// Composition is the registered composition to invoke.
	Composition string
	// InputSet is the composition input the payload lands in.
	InputSet string
	// OutputSet optionally names the output set for /invoke requests.
	OutputSet string
	// Tenant, when set, is sent as the X-Tenant header so the platform
	// schedules and accounts the traffic under that tenant.
	Tenant string
	// Deadline, when positive, is sent as the X-Deadline-Ms header on
	// every request: the frontend bounds the work with that budget
	// (expired work answers 504, hopeless backlogs shed with 503 —
	// docs/ROBUSTNESS.md), and the report's error classes split those
	// outcomes out from transport and application failures.
	Deadline time.Duration
	// Clients is the number of concurrent closed-loop clients
	// (default 1).
	Clients int
	// Requests is the number of HTTP requests each client issues
	// (default 1).
	Requests int
	// BatchSize is the number of invocations per request: 1 uses
	// POST /invoke/, larger values use POST /invoke-batch/ (default 1).
	BatchSize int
	// Binary frames batch requests in the length-prefixed binary wire
	// form (Content-Type: application/x-dandelion-frame, docs/WIRE.md)
	// instead of JSON. Single-invoke requests are unaffected.
	Binary bool
	// Payload produces the input bytes for invocation index i of
	// request seq of a client; nil selects a small deterministic
	// default.
	Payload func(client, seq, i int) []byte
	// Inputs, when set, supplies an invocation's full input sets and
	// overrides InputSet/Payload: served workloads like SSBQuery take
	// several named sets per invocation (docs/WORKLOADS.md), which the
	// single-item Payload hook cannot express. Requests always travel
	// through /invoke-batch/ (a BatchSize of 1 sends batches of one).
	Inputs func(client, seq, i int) map[string][]memctx.Item
	// Validate, when set, checks each invocation's response payload;
	// a non-nil return counts the invocation as an error.
	Validate func(client, seq, i int, body []byte) error
}

// ErrorClasses breaks a run's failed invocations down by cause, so a
// chaos or overload run shows *how* it failed, not just how much:
// deadline-class failures (504 responses, client-side deadline lapses,
// per-request deadline errors), load shedding (503), transport failures
// (no usable HTTP response at all), and application errors (everything
// else — 4xx/5xx statuses, per-request batch errors, Validate
// rejections). The four classes always sum to Errors.
type ErrorClasses struct {
	Timeouts  int
	Shed      int
	Transport int
	AppErrors int
}

func (ec ErrorClasses) String() string {
	return fmt.Sprintf("timeout=%d shed=%d transport=%d app=%d",
		ec.Timeouts, ec.Shed, ec.Transport, ec.AppErrors)
}

func (ec *ErrorClasses) add(o ErrorClasses) {
	ec.Timeouts += o.Timeouts
	ec.Shed += o.Shed
	ec.Transport += o.Transport
	ec.AppErrors += o.AppErrors
}

// failStatus classifies n invocations failed by an HTTP status.
func (ec *ErrorClasses) failStatus(n, code int) {
	switch code {
	case http.StatusGatewayTimeout:
		ec.Timeouts += n
	case http.StatusServiceUnavailable:
		ec.Shed += n
	default:
		ec.AppErrors += n
	}
}

// failTransport classifies n invocations failed without a usable HTTP
// response; a client-side deadline lapse counts as a timeout, not a
// transport fault.
func (ec *ErrorClasses) failTransport(n int, err error) {
	if err != nil && (errors.Is(err, context.DeadlineExceeded) ||
		strings.Contains(err.Error(), context.DeadlineExceeded.Error())) {
		ec.Timeouts += n
		return
	}
	ec.Transport += n
}

// failMessage classifies one invocation failed by a per-request error
// string (batch result slots carry errors as text over the wire).
func (ec *ErrorClasses) failMessage(msg string) {
	if strings.Contains(msg, "deadline") {
		ec.Timeouts++
		return
	}
	ec.AppErrors++
}

// TenantReport is one tenant's slice of a run, keyed by the X-Tenant
// the traffic travelled under ("default" when none was set).
type TenantReport struct {
	Requests    int
	Invocations int
	Errors      int
	BytesOut    int64
}

// Report summarizes one run.
type Report struct {
	// Requests is the number of HTTP round trips issued.
	Requests int
	// Invocations is the number of composition invocations carried
	// (Requests × BatchSize).
	Invocations int
	// Errors counts failed invocations (transport errors, non-200
	// statuses, per-request batch errors, and Validate rejections);
	// Classes breaks them down by cause.
	Errors  int
	Classes ErrorClasses
	// BytesOut is the request payload bytes sent.
	BytesOut int64
	// Tenants breaks the run down by X-Tenant. A plain Run has one
	// entry; RunMixed has one per distinct tenant across its streams.
	Tenants map[string]TenantReport
}

// String renders the report as the one-line summary the tests log,
// with one indented line per tenant when the run was mixed.
func (r Report) String() string {
	s := fmt.Sprintf("loadgen: %d reqs (%d invocations, %d errors), %d bytes out",
		r.Requests, r.Invocations, r.Errors, r.BytesOut)
	if r.Errors > 0 {
		s += fmt.Sprintf(" [%s]", r.Classes)
	}
	if len(r.Tenants) > 1 {
		for _, name := range slices.Sorted(maps.Keys(r.Tenants)) {
			s += fmt.Sprintf("\n  tenant %s: %+v", name, r.Tenants[name])
		}
	}
	return s
}

// Run executes the configured closed loop and reports it.
func Run(cfg Config) (Report, error) { return RunMixed(cfg) }

// RunMixed executes several closed-loop streams concurrently — the
// mixed multi-tenant shape, typically one Config per tenant — and
// reports them as one run: the top-level numbers span all streams,
// and Report.Tenants carries each tenant's own.
func RunMixed(cfgs ...Config) (Report, error) {
	if len(cfgs) == 0 {
		return Report{}, errors.New("loadgen: RunMixed needs at least one Config")
	}
	sds := make([]streamData, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sds[i], errs[i] = runStream(cfgs[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Report{}, err
	}
	rep := Report{Tenants: make(map[string]TenantReport)}
	for _, sd := range sds {
		rep.Requests += sd.requests
		rep.Invocations += sd.invocations
		rep.Errors += sd.errs
		rep.Classes.add(sd.classes)
		rep.BytesOut += sd.bytesOut
		tr := rep.Tenants[sd.tenant]
		tr.Requests += sd.requests
		tr.Invocations += sd.invocations
		tr.Errors += sd.errs
		tr.BytesOut += sd.bytesOut
		rep.Tenants[sd.tenant] = tr
	}
	return rep, nil
}

// streamData is one closed-loop stream's outcome.
type streamData struct {
	tenant      string
	requests    int
	invocations int
	reqStats
}

// runStream drives one Config's closed loop to completion.
func runStream(cfg Config) (streamData, error) {
	if (cfg.BaseURL == "" && len(cfg.BaseURLs) == 0) || cfg.Composition == "" ||
		(cfg.InputSet == "" && cfg.Inputs == nil) {
		return streamData{}, errors.New("loadgen: BaseURL (or BaseURLs), Composition, and InputSet (or Inputs) are required")
	}
	cfg.Clients = max(cfg.Clients, 1)
	cfg.Requests = max(cfg.Requests, 1)
	cfg.BatchSize = max(cfg.BatchSize, 1)
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Payload == nil {
		cfg.Payload = func(client, seq, i int) []byte {
			return fmt.Appendf(nil, "c%d-r%d-i%d", client, seq, i)
		}
	}

	results := make([]reqStats, cfg.Clients)
	var wg sync.WaitGroup
	for c := range cfg.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range cfg.Requests {
				results[c].add(doRequest(cfg, c, seq))
			}
		}()
	}
	wg.Wait()

	sd := streamData{
		tenant:      cmp.Or(cfg.Tenant, "default"),
		requests:    cfg.Clients * cfg.Requests,
		invocations: cfg.Clients * cfg.Requests * cfg.BatchSize,
	}
	for _, res := range results {
		sd.add(res)
	}
	return sd, nil
}

// reqStats is what round trips add up to: failed invocations by class
// and the request payload bytes sent.
type reqStats struct {
	errs     int
	classes  ErrorClasses
	bytesOut int64
}

func (st *reqStats) add(o reqStats) {
	st.errs += o.errs
	st.classes.add(o.classes)
	st.bytesOut += o.bytesOut
}

// failStatus / failTransport / failMessage count n failed invocations
// and classify them in one step.
func (st *reqStats) failStatus(n, code int) {
	st.errs += n
	st.classes.failStatus(n, code)
}

func (st *reqStats) failTransport(n int, err error) {
	st.errs += n
	st.classes.failTransport(n, err)
}

func (st *reqStats) failMessage(msg string) {
	st.errs++
	st.classes.failMessage(msg)
}

func (st *reqStats) failApp(n int) {
	st.errs += n
	st.classes.AppErrors += n
}

// doRequest issues one closed-loop request and reports its stats.
func doRequest(cfg Config, client, seq int) reqStats {
	if cfg.BatchSize == 1 && cfg.Inputs == nil {
		return doSingle(cfg, client, seq)
	}
	if cfg.Binary {
		return doBatchBinary(cfg, client, seq)
	}
	return doBatch(cfg, client, seq)
}

// inputsFor builds invocation i's input sets: the Inputs hook verbatim,
// or the classic single-item set from InputSet/Payload.
func (cfg Config) inputsFor(client, seq, i int) map[string][]memctx.Item {
	if cfg.Inputs != nil {
		return cfg.Inputs(client, seq, i)
	}
	return map[string][]memctx.Item{
		cfg.InputSet: {{Name: "item0", Data: cfg.Payload(client, seq, i)}},
	}
}

// targetURL picks the frontend a round trip goes to: BaseURL alone
// serves everything; with BaseURLs set, requests rotate across the
// frontends deterministically by client and sequence number.
func (cfg Config) targetURL(client, seq int) string {
	if len(cfg.BaseURLs) == 0 {
		return cfg.BaseURL
	}
	return cfg.BaseURLs[(client+seq)%len(cfg.BaseURLs)]
}

// send POSTs body with the tenant and deadline headers applied and
// returns the response when it answered 200. Any other outcome fails
// all n invocations the request carries, classified into st, and
// returns nil.
func send(cfg Config, st *reqStats, n int, url, contentType string, body []byte) *http.Response {
	st.bytesOut = int64(len(body))
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		st.failTransport(n, err)
		return nil
	}
	req.Header.Set("Content-Type", contentType)
	if cfg.Tenant != "" {
		req.Header.Set("X-Tenant", cfg.Tenant)
	}
	if cfg.Deadline > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(int64(cfg.Deadline/time.Millisecond), 10))
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		st.failTransport(n, err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			st.failTransport(n, err)
		} else {
			st.failStatus(n, resp.StatusCode)
		}
		return nil
	}
	return resp
}

func doSingle(cfg Config, client, seq int) reqStats {
	url := cfg.targetURL(client, seq) + "/invoke/" + cfg.Composition + "?input=" + cfg.InputSet
	if cfg.OutputSet != "" {
		url += "&output=" + cfg.OutputSet
	}
	var st reqStats
	resp := send(cfg, &st, 1, url, "application/octet-stream", cfg.Payload(client, seq, 0))
	if resp == nil {
		return st
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		st.failTransport(1, err)
		return st
	}
	if cfg.Validate != nil && cfg.Validate(client, seq, 0, body) != nil {
		st.failApp(1)
	}
	return st
}

func doBatch(cfg Config, client, seq int) reqStats {
	var st reqStats
	reqs := make([]wire.BatchRequest, cfg.BatchSize)
	for i := range reqs {
		sets := map[string][]wire.Item{}
		for set, items := range cfg.inputsFor(client, seq, i) {
			sets[set] = wire.FromItems(items)
		}
		reqs[i] = wire.BatchRequest{Inputs: sets}
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		st.failApp(cfg.BatchSize)
		return st
	}
	resp := send(cfg, &st, cfg.BatchSize, cfg.targetURL(client, seq)+"/invoke-batch/"+cfg.Composition,
		"application/json", body)
	if resp == nil {
		return st
	}
	defer resp.Body.Close()
	var results []wire.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		st.failTransport(cfg.BatchSize, err)
		return st
	}
	if len(results) != cfg.BatchSize {
		st.failApp(cfg.BatchSize)
		return st
	}
	for i, res := range results {
		if res.Error != "" {
			st.failMessage(res.Error)
			continue
		}
		if cfg.Validate != nil && cfg.Validate(client, seq, i, firstItem(res.Outputs, cfg.OutputSet).Data) != nil {
			st.failApp(1)
		}
	}
	return st
}

// doBatchBinary is doBatch in the length-prefixed binary framing; the
// response is decoded straight off the body stream.
func doBatchBinary(cfg Config, client, seq int) reqStats {
	var st reqStats
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	for i := range cfg.BatchSize {
		if err := enc.EncodeRequest(cfg.inputsFor(client, seq, i)); err != nil {
			enc.Release()
			st.failApp(cfg.BatchSize)
			return st
		}
	}
	err := enc.EncodeEnd()
	enc.Release()
	if err != nil {
		st.failApp(cfg.BatchSize)
		return st
	}
	resp := send(cfg, &st, cfg.BatchSize, cfg.targetURL(client, seq)+"/invoke-batch/"+cfg.Composition,
		wire.ContentTypeBinary, buf.Bytes())
	if resp == nil {
		return st
	}
	defer resp.Body.Close()
	dec := wire.NewDecoder(resp.Body)
	n := 0
	for ; ; n++ {
		outputs, errMsg, derr := dec.DecodeResult()
		if derr != nil {
			if derr != io.EOF {
				n = -1 // malformed stream: fail the whole batch below
			}
			break
		}
		if n >= cfg.BatchSize {
			continue
		}
		if errMsg != "" {
			st.failMessage(errMsg)
			continue
		}
		if cfg.Validate != nil && cfg.Validate(client, seq, n, firstItem(outputs, cfg.OutputSet).Data) != nil {
			st.failApp(1)
		}
	}
	dec.Recycle()
	dec.Release()
	if n != cfg.BatchSize {
		// A truncated or malformed stream fails the whole batch; undo the
		// per-slot classifications counted above so classes still sum.
		st.errs = cfg.BatchSize
		st.classes = ErrorClasses{Transport: cfg.BatchSize}
	}
	return st
}

// firstItem returns the first item of the named output set, or of the
// first non-empty set in sorted set-name order when name is empty —
// mirroring /invoke's deterministic pick — in either framing's item
// type; the zero item when there is none.
func firstItem[T any](outputs map[string][]T, name string) T {
	sets := []string{name}
	if name == "" {
		sets = slices.Sorted(maps.Keys(outputs))
	}
	for _, set := range sets {
		if its := outputs[set]; len(its) > 0 {
			return its[0]
		}
	}
	var zero T
	return zero
}
