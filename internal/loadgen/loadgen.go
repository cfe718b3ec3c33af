// Package loadgen is a deterministic closed-loop load generator for the
// Dandelion serving path, and the home of the end-to-end tests that
// drive it (cluster, journal, chaos, mixed tenants). It runs M
// concurrent clients against a real HTTP frontend (internal/frontend):
// each client issues its requests sequentially (the next request starts
// only after the previous response arrives), either one invocation per
// request through POST /invoke/ or a batch per request through
// POST /invoke-batch/, tagged with an X-Tenant header when
// Config.Tenant is set.
//
// The generator is deterministic by construction: a fixed client count,
// a fixed request count per client, and a caller-supplied payload
// function of (client, seq, index) — no randomness, no time-based
// admission. The report carries throughput plus p50/p99/max request
// latency, per run and per tenant. It is a test harness, not the
// benchmark: performance is measured by bench/ (BENCHMARK.json).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dandelion/internal/frontend"
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
	// KeyPrefix, when set, stamps every invocation with a unique
	// idempotency key ("<prefix>-c<client>-s<seq>#<i>"): batch requests
	// carry per-request body keys (JSON field / binary 'K' frames) and
	// single invokes send the Idempotency-Key header, driving the
	// journaled keyed serving path end to end (docs/JOURNAL.md).
	KeyPrefix string
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

// TenantReport is one tenant's slice of a run: the same throughput,
// byte-rate, and request-latency numbers as the top-level report,
// keyed by the X-Tenant the traffic travelled under ("default" when
// none was set). This is the view a mixed-tenant run is read by — the
// combined percentiles of an interactive stream and an analytics flood
// say nothing about either.
type TenantReport struct {
	Requests    int
	Invocations int
	Errors      int
	// Duration spans this tenant's own streams (a tenant that finishes
	// early is not billed for the rest of the mixed run); Throughput
	// and BytesPerSec are computed over it.
	Duration          time.Duration
	Throughput        float64
	BytesOut, BytesIn int64
	BytesPerSec       float64
	P50, P99, Max     time.Duration
}

// String renders the one-line per-tenant summary the harnesses log.
func (t TenantReport) String() string {
	return fmt.Sprintf("%d reqs (%d inv, %d errors) — %.0f inv/s, %.1f MB/s, p50=%v p99=%v max=%v",
		t.Requests, t.Invocations, t.Errors, t.Throughput, t.BytesPerSec/1e6,
		t.P50, t.P99, t.Max)
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
	// Duration is the wall-clock time of the whole run.
	Duration time.Duration
	// Throughput is successful invocations per second.
	Throughput float64
	// BytesOut and BytesIn are the request and response payload bytes
	// moved; BytesPerSec is their sum over the run duration — the wire
	// bandwidth the serialization choice actually achieved.
	BytesOut, BytesIn int64
	BytesPerSec       float64
	// P50, P99, Max are request-latency percentiles.
	P50, P99, Max time.Duration
	// Tenants breaks the run down by X-Tenant. A plain Run has one
	// entry; RunMixed has one per distinct tenant across its streams.
	Tenants map[string]TenantReport
}

// String renders the report as the one-line summary the harnesses log,
// with one indented line per tenant when the run was mixed.
func (r Report) String() string {
	s := fmt.Sprintf(
		"loadgen: %d reqs (%d invocations, %d errors) in %v — %.0f inv/s, %.1f MB/s, p50=%v p99=%v max=%v",
		r.Requests, r.Invocations, r.Errors, r.Duration.Round(time.Millisecond),
		r.Throughput, r.BytesPerSec/1e6, r.P50, r.P99, r.Max)
	if r.Errors > 0 {
		s += fmt.Sprintf(" [%s]", r.Classes)
	}
	if len(r.Tenants) > 1 {
		names := make([]string, 0, len(r.Tenants))
		for name := range r.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s += fmt.Sprintf("\n  tenant %s: %s", name, r.Tenants[name])
		}
	}
	return s
}

// Run executes the configured closed loop and reports latency and
// throughput.
func Run(cfg Config) (Report, error) {
	sd, err := runStream(cfg)
	if err != nil {
		return Report{}, err
	}
	return buildReport([]streamData{sd}, sd.duration), nil
}

// RunMixed executes several closed-loop streams concurrently — the
// mixed multi-tenant shape, typically one Config per tenant — and
// reports them as one run: the top-level numbers span all streams,
// and Report.Tenants carries each tenant's own latency percentiles,
// throughput, and byte rate, which is the only view where fairness
// between an interactive tenant and a large-payload flood is legible.
func RunMixed(cfgs ...Config) (Report, error) {
	if len(cfgs) == 0 {
		return Report{}, errors.New("loadgen: RunMixed needs at least one Config")
	}
	sds := make([]streamData, len(cfgs))
	errs := make([]error, len(cfgs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cfgs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sds[i], errs[i] = runStream(cfgs[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Report{}, err
		}
	}
	return buildReport(sds, elapsed), nil
}

// streamData is one closed-loop stream's raw outcome, kept unreduced
// so buildReport can merge percentiles across streams exactly.
type streamData struct {
	tenant      string
	requests    int
	invocations int
	latencies   []time.Duration
	errs        int
	classes     ErrorClasses
	bytesOut    int64
	bytesIn     int64
	duration    time.Duration
}

// runStream drives one Config's closed loop to completion.
func runStream(cfg Config) (streamData, error) {
	if (cfg.BaseURL == "" && len(cfg.BaseURLs) == 0) || cfg.Composition == "" ||
		(cfg.InputSet == "" && cfg.Inputs == nil) {
		return streamData{}, errors.New("loadgen: BaseURL (or BaseURLs), Composition, and InputSet (or Inputs) are required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Payload == nil {
		cfg.Payload = func(client, seq, i int) []byte {
			return fmt.Appendf(nil, "c%d-r%d-i%d", client, seq, i)
		}
	}

	type clientResult struct {
		latencies []time.Duration
		errs      int
		classes   ErrorClasses
		bytesOut  int64
		bytesIn   int64
	}
	results := make([]clientResult, cfg.Clients)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			res.latencies = make([]time.Duration, 0, cfg.Requests)
			for seq := 0; seq < cfg.Requests; seq++ {
				t0 := time.Now()
				st := doRequest(cfg, c, seq)
				res.latencies = append(res.latencies, time.Since(t0))
				res.errs += st.errs
				res.classes.add(st.classes)
				res.bytesOut += st.bytesOut
				res.bytesIn += st.bytesIn
			}
		}()
	}
	wg.Wait()

	sd := streamData{
		tenant:      tenantKey(cfg.Tenant),
		requests:    cfg.Clients * cfg.Requests,
		invocations: cfg.Clients * cfg.Requests * cfg.BatchSize,
		duration:    time.Since(start),
	}
	for _, res := range results {
		sd.latencies = append(sd.latencies, res.latencies...)
		sd.errs += res.errs
		sd.classes.add(res.classes)
		sd.bytesOut += res.bytesOut
		sd.bytesIn += res.bytesIn
	}
	return sd, nil
}

// tenantKey names the report bucket for a configured tenant.
func tenantKey(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// buildReport reduces the streams into one Report: combined totals and
// percentiles over every request, plus the per-tenant breakdown
// (streams sharing a tenant merge).
func buildReport(sds []streamData, elapsed time.Duration) Report {
	rep := Report{Duration: elapsed, Tenants: make(map[string]TenantReport)}
	var all []time.Duration
	byTenant := map[string][]*streamData{}
	for i := range sds {
		sd := &sds[i]
		rep.Requests += sd.requests
		rep.Invocations += sd.invocations
		rep.Errors += sd.errs
		rep.Classes.add(sd.classes)
		rep.BytesOut += sd.bytesOut
		rep.BytesIn += sd.bytesIn
		all = append(all, sd.latencies...)
		byTenant[sd.tenant] = append(byTenant[sd.tenant], sd)
	}
	slices.Sort(all)
	rep.P50 = percentile(all, 0.50)
	rep.P99 = percentile(all, 0.99)
	if len(all) > 0 {
		rep.Max = all[len(all)-1]
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Invocations-rep.Errors) / secs
		rep.BytesPerSec = float64(rep.BytesOut+rep.BytesIn) / secs
	}
	for tenant, group := range byTenant {
		var tr TenantReport
		var lats []time.Duration
		for _, sd := range group {
			tr.Requests += sd.requests
			tr.Invocations += sd.invocations
			tr.Errors += sd.errs
			tr.BytesOut += sd.bytesOut
			tr.BytesIn += sd.bytesIn
			lats = append(lats, sd.latencies...)
			if sd.duration > tr.Duration {
				tr.Duration = sd.duration
			}
		}
		slices.Sort(lats)
		tr.P50 = percentile(lats, 0.50)
		tr.P99 = percentile(lats, 0.99)
		if len(lats) > 0 {
			tr.Max = lats[len(lats)-1]
		}
		if secs := tr.Duration.Seconds(); secs > 0 {
			tr.Throughput = float64(tr.Invocations-tr.Errors) / secs
			tr.BytesPerSec = float64(tr.BytesOut+tr.BytesIn) / secs
		}
		rep.Tenants[tenant] = tr
	}
	return rep
}

// reqStats is what one round trip reports upward: failed invocations
// and the payload bytes moved in each direction.
type reqStats struct {
	errs     int
	classes  ErrorClasses
	bytesOut int64
	bytesIn  int64
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

// post issues one POST with the tenant header applied.
func post(cfg Config, url, contentType string, body []byte) (*http.Response, error) {
	return postKeyed(cfg, url, contentType, "", body)
}

// postKeyed is post with an optional Idempotency-Key header.
func postKeyed(cfg Config, url, contentType, key string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if cfg.Tenant != "" {
		req.Header.Set("X-Tenant", cfg.Tenant)
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	if cfg.Deadline > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(int64(cfg.Deadline/time.Millisecond), 10))
	}
	return cfg.Client.Do(req)
}

// reqKey renders the idempotency key of invocation i of round trip
// (client, seq); "" when keying is off.
func (cfg Config) reqKey(client, seq, i int) string {
	if cfg.KeyPrefix == "" {
		return ""
	}
	return fmt.Sprintf("%s-c%d-s%d#%d", cfg.KeyPrefix, client, seq, i)
}

func doSingle(cfg Config, client, seq int) reqStats {
	url := cfg.targetURL(client, seq) + "/invoke/" + cfg.Composition + "?input=" + cfg.InputSet
	if cfg.OutputSet != "" {
		url += "&output=" + cfg.OutputSet
	}
	payload := cfg.Payload(client, seq, 0)
	st := reqStats{bytesOut: int64(len(payload))}
	resp, err := postKeyed(cfg, url, "application/octet-stream", cfg.reqKey(client, seq, 0), payload)
	if err != nil {
		st.failTransport(1, err)
		return st
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	st.bytesIn = int64(len(body))
	if err != nil {
		st.failTransport(1, err)
		return st
	}
	if resp.StatusCode != http.StatusOK {
		st.failStatus(1, resp.StatusCode)
		return st
	}
	if cfg.Validate != nil && cfg.Validate(client, seq, 0, body) != nil {
		st.failApp(1)
	}
	return st
}

// bodyBufPool recycles the request-body staging buffers across round
// trips: a closed-loop client re-sending multi-MiB batches would
// otherwise re-allocate (and re-grow) a body-sized buffer per request,
// and that allocation dominated the client side of a large-payload
// run. Buffers grown past maxPooledBodyBytes by one
// outsized batch are dropped instead of pinned warm.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBodyBytes = 64 << 20

func getBodyBuf() *bytes.Buffer {
	b := bodyBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBodyBytes {
		bodyBufPool.Put(b)
	}
}

// countingReader counts the bytes a streaming decode consumed, so the
// report's wire-bandwidth numbers stay exact without buffering the
// whole response first.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func doBatch(cfg Config, client, seq int) reqStats {
	var st reqStats
	reqs := make([]frontend.WireBatchRequest, cfg.BatchSize)
	for i := range reqs {
		in := cfg.inputsFor(client, seq, i)
		sets := make(map[string][]frontend.WireItem, len(in))
		for set, items := range in {
			ws := make([]frontend.WireItem, len(items))
			for j, it := range items {
				ws[j] = frontend.WireItem{Name: it.Name, Key: it.Key, Data: it.Data}
			}
			sets[set] = ws
		}
		reqs[i] = frontend.WireBatchRequest{Inputs: sets, Key: cfg.reqKey(client, seq, i)}
	}
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	if err := json.NewEncoder(buf).Encode(reqs); err != nil {
		st.failApp(cfg.BatchSize)
		return st
	}
	st.bytesOut = int64(buf.Len())
	resp, err := post(cfg, cfg.targetURL(client, seq)+"/invoke-batch/"+cfg.Composition,
		"application/json", buf.Bytes())
	if err != nil {
		st.failTransport(cfg.BatchSize, err)
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, rerr := io.ReadAll(resp.Body)
		st.bytesIn = int64(len(raw))
		if rerr != nil {
			st.failTransport(cfg.BatchSize, rerr)
			return st
		}
		st.failStatus(cfg.BatchSize, resp.StatusCode)
		return st
	}
	cr := &countingReader{r: resp.Body}
	var results []frontend.WireBatchResult
	err = json.NewDecoder(cr).Decode(&results)
	st.bytesIn = cr.n
	if err != nil {
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
		if cfg.Validate != nil {
			payload := firstItem(res.Outputs, cfg.OutputSet)
			if cfg.Validate(client, seq, i, payload) != nil {
				st.failApp(1)
			}
		}
	}
	return st
}

// doBatchBinary is doBatch in the length-prefixed binary framing: no
// base64, no JSON reflection, pooled frame buffers on both sides. The
// request body is staged in a pooled buffer (the encoder's vectored
// payload writes land in it without intermediate copies growing a
// fresh allocation per request) and the response is decoded straight
// off the body stream into the decoder's pooled slabs — no
// io.ReadAll of a multi-MiB response.
func doBatchBinary(cfg Config, client, seq int) reqStats {
	var st reqStats
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	enc := wire.NewEncoder(buf)
	for i := 0; i < cfg.BatchSize; i++ {
		if err := enc.EncodeKeyedRequest(cfg.reqKey(client, seq, i),
			cfg.inputsFor(client, seq, i)); err != nil {
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
	st.bytesOut = int64(buf.Len())
	resp, err := post(cfg, cfg.targetURL(client, seq)+"/invoke-batch/"+cfg.Composition,
		wire.ContentTypeBinary, buf.Bytes())
	if err != nil {
		st.failTransport(cfg.BatchSize, err)
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, rerr := io.ReadAll(resp.Body)
		st.bytesIn = int64(len(raw))
		if rerr != nil {
			st.failTransport(cfg.BatchSize, rerr)
			return st
		}
		st.failStatus(cfg.BatchSize, resp.StatusCode)
		return st
	}
	cr := &countingReader{r: resp.Body}
	dec := wire.NewDecoder(cr)
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
		if cfg.Validate != nil {
			if cfg.Validate(client, seq, n, firstItemSets(outputs, cfg.OutputSet)) != nil {
				st.failApp(1)
			}
		}
	}
	dec.Recycle()
	dec.Release()
	st.bytesIn = cr.n
	if n != cfg.BatchSize {
		// A truncated or malformed stream fails the whole batch; undo the
		// per-slot classifications counted above so classes still sum.
		st.errs = cfg.BatchSize
		st.classes = ErrorClasses{Transport: cfg.BatchSize}
	}
	return st
}

// firstItem extracts the first item of the named output set, or of the
// first non-empty set in sorted set-name order when name is empty —
// mirroring /invoke's deterministic pick.
func firstItem(outputs map[string][]frontend.WireItem, name string) []byte {
	if name != "" {
		if its := outputs[name]; len(its) > 0 {
			return its[0].Data
		}
		return nil
	}
	sets := make([]string, 0, len(outputs))
	for set := range outputs {
		sets = append(sets, set)
	}
	sort.Strings(sets)
	for _, set := range sets {
		if its := outputs[set]; len(its) > 0 {
			return its[0].Data
		}
	}
	return nil
}

// firstItemSets is firstItem for the binary framing's platform-shaped
// output maps.
func firstItemSets(outputs map[string][]memctx.Item, name string) []byte {
	if name != "" {
		if its := outputs[name]; len(its) > 0 {
			return its[0].Data
		}
		return nil
	}
	sets := make([]string, 0, len(outputs))
	for set := range outputs {
		sets = append(sets, set)
	}
	sort.Strings(sets)
	for _, set := range sets {
		if its := outputs[set]; len(its) > 0 {
			return its[0].Data
		}
	}
	return nil
}

// percentile reads the q-quantile from sorted latencies using the
// nearest-rank method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
