package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"
)

var perLayerNames = []string{
	"trace.overhead_pct",
	"client.encode_us", "client.roundtrip_us", "client.decode_us",
	"transport.floor_us_per_req", "transport.floor_rps",
	"wire.req_decode_us", "wire.resp_encode_us", "wire.req_bytes", "wire.resp_bytes", "wire.decode_allocs_per_req",
	"autoscale.admit_ns",
	"sched.handoff_us", "sched.dispatch_wait_p99_us", "sched.fg_dispatch_wait_p99_us", "sched.expired",
	"engine.queue_roundtrip_ns", "engine.tasks_per_inv",
	"memctx.cycle_us", "memctx.copied_bytes_per_inv", "memctx.pool_reuse_ratio",
	"isolation.execute_us", "isolation.execute_64k_us", "workloads.exec_us_per_inv", "workloads.bg_exec_us_per_inv",
	"journal.append_us", "journal.appends_per_inv", "journal.dedup_hit_ratio",
	"core.residual_us_per_req",
}

// tracePattern is the order of untraced (false) and traced (true)
// windows: a cost that drifts over the run weighs on both kinds alike.
var tracePattern = []bool{false, true, true, false, false, true, true, false}

// served is what the windows against the real server yield.
type served struct {
	attempted, failed int
	firstErr          error
	plain, traced     []int64     // connection 0 round trips by window kind, ns
	before, after     serverStats // /stats around the windows
	tenantRequests    int         // requests that reached connection 0's admission window, warm-up included
	keyed             float64     // keyed invocations connection 0 saw succeed in the windows
	call              call        // connection 0's request shape ...
	reqBody, respBody []byte      // ... and one request and answer of it, for the codec probe
	dedupErr          error
}

// serve boots the server, warms it up and drives the alternating
// windows of length d each.
func serve(opt options, w workload, conns []*conn, tracers []*tracer, warm, d time.Duration) (served, error) {
	srv, _, err := bootServer(opt, w, conns)
	if err != nil {
		return served{}, err
	}
	defer stopChildren()
	s := served{attempted: len(conns)}
	record := func(results []connResult) {
		sum := summarize(results)
		s.attempted += sum.attempted
		s.failed += sum.failed
		s.firstErr = firstOf(s.firstErr, sum.firstErr)
		// Peers share connection 0's admission window when all are one tenant.
		if w.tenant == "" {
			s.tenantRequests += sum.attempted
		} else {
			s.tenantRequests += results[0].attempted
		}
	}
	record(runAll(conns, srv.base, warm, false, nil))
	if s.before, err = srv.stats(); err != nil {
		return served{}, err
	}
	for _, on := range tracePattern {
		var trs []*tracer
		if on {
			trs = tracers
		}
		results := runAll(conns, srv.base, d, false, trs)
		record(results)
		if w.keyed {
			s.keyed += float64(results[0].invocations)
		}
		for _, sm := range results[0].samples {
			if on {
				s.traced = append(s.traced, sm.latency)
			} else {
				s.plain = append(s.plain, sm.latency)
			}
		}
	}
	if s.after, err = srv.stats(); err != nil {
		return served{}, err
	}
	if len(s.plain) == 0 || len(s.traced) == 0 {
		return served{}, fmt.Errorf("no successful request on connection 0: %v", s.firstErr)
	}
	s.dedupErr = checkDedup(srv, conns)
	s.respBody = append([]byte(nil), conns[0].resp.Bytes()...)
	var body bytes.Buffer
	s.call = conns[0].src.next(&body)
	s.reqBody = body.Bytes()
	return s, nil
}

// floorRun sends the connections' bodies over the same loop to the
// bare echo and returns connection 0's round trips and the request
// rate of all connections.
func floorRun(opt options, conns []*conn, warm, d time.Duration) (lat []int64, rps float64, err error) {
	floor, err := startProc(opt.self, []string{"-serve-floor"}, filepath.Join(opt.scratch, "floor.log"), "/floor")
	if err != nil {
		return nil, 0, err
	}
	track(floor)
	defer stopChildren()
	runAll(conns, floor.base, warm, true, nil)
	results := runAll(conns, floor.base, d, true, nil)
	if lat = latencies(results[0]); len(lat) == 0 {
		return nil, 0, fmt.Errorf("transport floor answered no request: %v", results[0].firstErr)
	}
	for _, r := range results {
		rps += float64(len(r.samples)) / r.elapsed.Seconds()
	}
	return lat, rps, nil
}

// layers are the leaf layers' costs, each timed directly.
type layers struct {
	codec                                 codecProbe
	admit, handoff, queue, cycle, journal time.Duration
	isolate, isolate64k, exec, bgExec     time.Duration
}

func probeLayers(tr *tracer, opt options, w workload, s served, sent time.Duration, measured float64) (l layers, err error) {
	fg, bg, err := w.model(opt.seed)
	if err != nil {
		return l, err
	}
	if l.codec, err = probeCodec(tr, w.framing, s.reqBody, s.respBody); err != nil {
		return l, err
	}
	memLimit := 0 // Go functions run under memctx.DefaultLimit
	if w.framing == framingRaw {
		memLimit = echoMem
	} else { // POST /invoke/ passes no admission window
		l.admit = probeAdmit(tr, s.tenantRequests, sent, measured, s.call.invocations, int64(s.call.bytesIn))
	}
	l.handoff = probeHandoff(tr)
	l.queue = probeQueue(tr)
	if l.cycle, err = probeContexts(tr, fg, memLimit); err != nil {
		return l, fmt.Errorf("memctx probe: %w", err)
	}
	isolate := func(name string, mem int) (time.Duration, error) {
		echo, err := echoStage(mem)
		if err != nil {
			return 0, err
		}
		return probeExec(tr, name, []stage{echo})
	}
	if l.isolate, err = isolate("probe.isolation.execute", echoMem); err != nil {
		return l, fmt.Errorf("isolation probe: %w", err)
	}
	if l.isolate64k, err = isolate("probe.isolation.execute_64k", 64<<10); err != nil {
		return l, fmt.Errorf("isolation probe: %w", err)
	}
	l.exec = l.isolate // rpc-small's function body is the dvm run itself
	if w.framing != framingRaw {
		if l.exec, err = probeExec(tr, "probe.workloads.exec", fg); err != nil {
			return l, fmt.Errorf("exec probe: %w", err)
		}
	}
	l.bgExec = l.exec // the last connection sends what connection 0 sends
	if bg != nil {
		if l.bgExec, err = probeExec(tr, "probe.workloads.bg_exec", bg); err != nil {
			return l, fmt.Errorf("background exec probe: %w", err)
		}
	}
	if l.journal, err = probeJournal(tr, opt.scratch); err != nil {
		return l, fmt.Errorf("journal probe: %w", err)
	}
	return l, nil
}

// pathStep is one line of the blocking-path table: a layer's cost and
// how many times a request of connection 0 waits for it.
type pathStep struct {
	name  string
	us    float64
	count float64
}

func p50(lat []int64) int64 {
	s := slices.Clone(lat)
	slices.Sort(s)
	return percentile(s, 50)
}

func usOf(d time.Duration) float64 { return us(d.Nanoseconds()) }

// runTraced measures the per-layer metrics: alternating untraced and
// traced windows against the server (their p50 difference is the
// tracing overhead), the same traffic against the bare net/http floor,
// and each leaf layer's public functions timed directly on the
// workload's own payloads.
func runTraced(opt options, w workload) (result, error) {
	total := time.Duration(opt.seconds * float64(time.Second))
	warm := warmup(total)
	d := total * 6 / 10 / time.Duration(len(tracePattern)) // 0.6 of the budget on the real server
	floorD := total * 15 / 100
	fmt.Fprintf(opt.log, "== %s  seed=%d  tracing on: %d alternating windows of %v, a %v floor window, layer probes\n",
		w.name, opt.seed, len(tracePattern), d, floorD)
	epoch := time.Now()

	conns, err := newConns(w, opt.seed)
	if err != nil {
		return result{}, err
	}
	defer closeConns(conns)
	tracers := make([]*tracer, len(conns))
	for i := range tracers {
		tracers[i] = newTracer(epoch, 1<<16)
	}
	s, err := serve(opt, w, conns, tracers, warm, d)
	if err != nil {
		return result{}, err
	}
	floorLat, floorRPS, err := floorRun(opt, conns, warm/4, floorD)
	if err != nil {
		return result{}, err
	}
	probeTr := newTracer(epoch, 256)
	windows := d * time.Duration(len(tracePattern))
	l, err := probeLayers(probeTr, opt, w, s, warm+windows, float64(windows)/float64(warm+windows))
	if err != nil {
		return result{}, err
	}

	byName := durationsByName(tracers[0].spans)
	roundtrip, floorUS := us(p50(byName["client.roundtrip"])), us(p50(floorLat))
	invocations := delta(s.before, s.after, "Invocations")
	tasksPerInv := div(delta(s.before, s.after, "ComputeCompleted"), invocations)

	// What a request of connection 0 waits for, layer by layer. Steps of
	// one invocation repeat for as many invocations as run one after
	// another when the connections, all busy, share the compute engines
	// evenly.
	engines, tasks := 2.0, 1.0
	if e := s.after.num("ComputeEngines"); e != nil && *e > 0 {
		engines = *e
	}
	if tasksPerInv != nil {
		tasks = *tasksPerInv
	}
	serial := math.Ceil(float64(s.call.invocations*len(conns)) / engines)
	keyed := 0.0
	if w.keyed {
		keyed = 1
	}
	path := []pathStep{
		{"transport.floor_us_per_req", floorUS, 1},
		{"wire.req_decode_us", usOf(l.codec.decode), 1},
		{"wire.resp_encode_us", usOf(l.codec.encode), 1},
		{"autoscale.admit_ns / 1000", usOf(l.admit), 1},
		{"journal.append_us", usOf(l.journal), keyed},
		{"sched.handoff_us", usOf(l.handoff), serial * tasks},
		{"memctx.cycle_us", usOf(l.cycle), serial},
		{"workloads.exec_us_per_inv", usOf(l.exec), serial},
	}
	residual := roundtrip
	for _, step := range path {
		residual -= step.us * step.count
	}

	fgTenant := w.tenant
	if fgTenant == "" {
		fgTenant = "default"
	}
	scale := func(v *float64, f float64) *float64 { return div(v, &f) }
	reuses, allocs := delta(s.before, s.after, "PooledContextReuses"), delta(s.before, s.after, "PooledContextAllocs")
	var acquired *float64
	if reuses != nil && allocs != nil {
		sum := *reuses + *allocs
		acquired = &sum
	}
	res := result{Attempted: s.attempted, Failed: s.failed, Correct: s.failed == 0 && s.dedupErr == nil}
	res.Metrics = map[string]value{
		"trace.overhead_pct":            num(100*(float64(p50(s.traced))-float64(p50(s.plain)))/float64(p50(s.plain)), "%"),
		"client.encode_us":              num(us(p50(byName["client.encode"])), "us"),
		"client.roundtrip_us":           num(roundtrip, "us"),
		"client.decode_us":              num(us(p50(byName["client.decode"])), "us"),
		"transport.floor_us_per_req":    num(floorUS, "us"),
		"transport.floor_rps":           num(floorRPS, "1/s"),
		"wire.req_decode_us":            num(usOf(l.codec.decode), "us"),
		"wire.resp_encode_us":           num(usOf(l.codec.encode), "us"),
		"wire.req_bytes":                num(float64(len(s.reqBody)), "B"),
		"wire.resp_bytes":               num(float64(len(s.respBody)), "B"),
		"wire.decode_allocs_per_req":    num(l.codec.decodeAllocs, "count"),
		"autoscale.admit_ns":            num(float64(l.admit.Nanoseconds()), "ns"),
		"sched.handoff_us":              num(usOf(l.handoff), "us"),
		"sched.dispatch_wait_p99_us":    {scale(s.after.tenantNum("", "P99DispatchWait"), 1e3), "us"},
		"sched.fg_dispatch_wait_p99_us": {scale(s.after.tenantNum(fgTenant, "P99DispatchWait"), 1e3), "us"},
		"sched.expired":                 {delta(s.before, s.after, "Expired"), "count"},
		"engine.queue_roundtrip_ns":     num(float64(l.queue.Nanoseconds()), "ns"),
		"engine.tasks_per_inv":          {tasksPerInv, "1"},
		"memctx.cycle_us":               num(usOf(l.cycle), "us"),
		"memctx.copied_bytes_per_inv":   {div(delta(s.before, s.after, "CopiedBytes"), invocations), "B"},
		"memctx.pool_reuse_ratio":       {div(reuses, acquired), "1"},
		"isolation.execute_us":          num(usOf(l.isolate), "us"),
		"isolation.execute_64k_us":      num(usOf(l.isolate64k), "us"),
		"workloads.exec_us_per_inv":     num(usOf(l.exec), "us"),
		"workloads.bg_exec_us_per_inv":  num(usOf(l.bgExec), "us"),
		"journal.append_us":             num(usOf(l.journal), "us"),
		"journal.appends_per_inv":       {div(delta(s.before, s.after, "JournalAppends"), invocations), "1"},
		"journal.dedup_hit_ratio":       {div(delta(s.before, s.after, "DedupHits"), &s.keyed), "1"},
		"core.residual_us_per_req":      num(residual, "us"),
	}

	printMetrics(opt.log, perLayerNames, res.Metrics)
	fmt.Fprintf(opt.log, "   blocking path of a connection-0 request (us x count), summing to client.roundtrip_us = %.1f:\n", roundtrip)
	for _, step := range append(path, pathStep{"core.residual_us_per_req", residual, 1}) {
		fmt.Fprintf(opt.log, "     %-30s %10.1f x %-5.2f = %10.1f\n", step.name, step.us, step.count, step.us*step.count)
	}
	fmt.Fprintf(opt.log, "   samples on connection 0: %d untraced, %d traced, %d floor\n", len(s.plain), len(s.traced), len(floorLat))
	spans := mergeSpans(append(tracers, probeTr)...)
	tracePath, err := writeTrace(opt.outDir, w.name, opt.seed, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(opt.log, "   %d spans written to %s\n", len(spans), tracePath)
	if s.dedupErr != nil {
		fmt.Fprintln(opt.log, "   INCORRECT:", s.dedupErr)
	}
	printOutcome(opt.log, res, s.firstErr)
	return res, nil
}
