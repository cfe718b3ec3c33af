package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dandelion/internal/autoscale"
	"dandelion/internal/engine"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
	"dandelion/internal/wire"
)

// probeRounds is how many timed rounds a probe makes; it reports the
// median round, so one preempted round does not move the figure.
const probeRounds = 9

// timeOp runs op in probeRounds rounds of perRound calls (after one
// untimed round) and returns the median cost of one call. Each round
// is recorded as a span named name.
func timeOp(tr *tracer, name string, perRound int, op func()) time.Duration {
	for i := 0; i < perRound; i++ {
		op()
	}
	rounds := make([]time.Duration, probeRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			op()
		}
		t1 := time.Now()
		rounds[r] = t1.Sub(t0) / time.Duration(perRound)
		tr.add(name, -1, -1, t0, t1)
	}
	slices.Sort(rounds)
	return rounds[probeRounds/2]
}

// perRoundFor sizes a round to last about 20 ms given one call's cost.
func perRoundFor(op func()) int {
	t0 := time.Now()
	op()
	cost := time.Since(t0)
	return int(min(max(20*time.Millisecond/max(cost, time.Nanosecond), 3), 20000))
}

// allocsPer counts heap allocations per call of op.
func allocsPer(op func(), n int) float64 {
	var before, after runtime.MemStats
	op()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// codecProbe times the server's side of the codec for one request of
// connection 0: decoding reqBody and encoding the sets in respBody.
type codecProbe struct {
	decode, encode time.Duration
	decodeAllocs   float64
}

func probeCodec(tr *tracer, framing string, reqBody, respBody []byte) (codecProbe, error) {
	var decode, encode func()
	switch framing {
	case framingRaw:
		return codecProbe{}, nil // POST /invoke/ carries the payload bare: no codec runs
	case framingBinary:
		dec := wire.NewDecoder(bytes.NewReader(respBody))
		var results []map[string][]memctx.Item
		for {
			sets, errMsg, err := dec.DecodeResult()
			if err == io.EOF {
				break
			}
			if err != nil || errMsg != "" {
				return codecProbe{}, fmt.Errorf("codec probe: undecodable response: %v %s", err, errMsg)
			}
			results = append(results, sets)
		}
		defer dec.Release()
		decode = func() {
			d := wire.NewDecoder(bytes.NewReader(reqBody))
			for {
				if _, _, err := d.DecodeKeyedRequest(); err != nil {
					break
				}
			}
			d.Recycle()
			d.Release()
		}
		encode = func() {
			e := wire.NewEncoder(io.Discard)
			for _, r := range results {
				e.EncodeResult(r)
			}
			e.EncodeEnd()
			e.Release()
		}
	case framingJSON:
		var results []wire.BatchResult
		if err := json.Unmarshal(respBody, &results); err != nil {
			return codecProbe{}, fmt.Errorf("codec probe: undecodable response: %w", err)
		}
		decode = func() {
			var reqs []wire.BatchRequest
			json.NewDecoder(bytes.NewReader(reqBody)).Decode(&reqs)
		}
		encode = func() { json.NewEncoder(io.Discard).Encode(results) }
	}
	return codecProbe{
		decode:       timeOp(tr, "probe.wire.decode", perRoundFor(decode), decode),
		encode:       timeOp(tr, "probe.wire.encode", perRoundFor(encode), encode),
		decodeAllocs: allocsPer(decode, 50),
	}, nil
}

// probeAdmit replays the requests one tenant sent to the batch route —
// count of them, evenly over span, each of n invocations and bytes of
// payload — through a fresh admission plane, and returns the mean cost
// of one request's AdmitBytes+Finish over the replay's last measured
// share. A replay, not a loop on a warm plane: the plane's cost per
// call grows with the arrivals it remembers, so it depends on how long
// and how fast the tenant has been sending.
func probeAdmit(tr *tracer, count int, span time.Duration, measured float64, n int, bytes int64) time.Duration {
	adm := autoscale.NewAdmission(autoscale.AdmissionConfig{})
	step := span.Seconds() / float64(count)
	first := int(float64(count) * (1 - measured))
	var t0 time.Time
	for i := 0; i < count; i++ {
		if i == first {
			t0 = time.Now()
		}
		now := float64(i) * step
		adm.AdmitBytes("probe", n, bytes, now)
		adm.Finish("probe", n, now+step/2)
	}
	t1 := time.Now()
	tr.add("probe.autoscale.admit", -1, -1, t0, t1)
	return t1.Sub(t0) / time.Duration(count-first)
}

// probeHandoff times Scheduler.Submit to the entry of Task.Do on an
// idle pool of two compute engines, the server's default.
func probeHandoff(tr *tracer) time.Duration {
	q := engine.NewQueue()
	pool := engine.NewPool(engine.Compute, q)
	pool.SetCount(2)
	s := sched.New(q, sched.Config{})
	defer pool.Shutdown()
	defer s.Close()
	var entered time.Time
	done := make(chan struct{})
	task := sched.Task{Do: func() { entered = time.Now(); done <- struct{}{} }}
	waits := make([]time.Duration, 2000)
	t0 := time.Now()
	for i := range waits {
		submit := time.Now()
		if err := s.Submit("probe", task); err != nil {
			return 0
		}
		<-done
		waits[i] = entered.Sub(submit)
	}
	tr.add("probe.sched.handoff", -1, -1, t0, time.Now())
	slices.Sort(waits)
	return waits[len(waits)/2]
}

// probeQueue times one engine-queue Push followed by its Pop.
func probeQueue(tr *tracer) time.Duration {
	q := engine.NewQueue()
	task := engine.Task{Do: func() {}}
	return timeOp(tr, "probe.engine.queue", 20000, func() {
		q.Push(task)
		q.Pop(nil)
	})
}

// probeContexts times the memory-context life of one invocation: for
// each stage a pooled context takes the inputs, takes and yields the
// outputs, and returns to the pool.
func probeContexts(tr *tracer, stages []stage, limit int) (time.Duration, error) {
	var failed error
	op := func() {
		for _, st := range stages {
			ctx, _ := memctx.NewPooled(limit)
			for _, s := range st.in {
				if err := ctx.AddInputSet(s); err != nil {
					failed = err
				}
			}
			if err := ctx.SetOutputs(st.out); err != nil {
				failed = err
			}
			ctx.Seal()
			if _, err := ctx.TakeOutputs(); err != nil {
				failed = err
			}
			memctx.Recycle(ctx)
		}
	}
	d := timeOp(tr, "probe.memctx.cycle", perRoundFor(op), op)
	return d, failed
}

// probeExec times the function bodies of one invocation.
func probeExec(tr *tracer, name string, stages []stage) (time.Duration, error) {
	var failed error
	op := func() {
		for _, st := range stages {
			if _, err := st.fn(st.in); err != nil {
				failed = err
			}
		}
	}
	d := timeOp(tr, name, perRoundFor(op), op)
	return d, failed
}

// probeJournal times appending one begin+end record pair to a file
// journal opened the way the server opens it (flushed per append).
func probeJournal(tr *tracer, dir string) (time.Duration, error) {
	path := filepath.Join(dir, "probe.wal")
	j, err := journal.OpenFile(path, journal.FileOptions{})
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer j.Close()
	var failed error
	begin := journal.Record{Kind: journal.KindInvokeBegin, Tenant: "interactive", Comp: "ImagePipeline", Key: "bench-0-0", Digest: 1}
	end := journal.Record{Kind: journal.KindInvokeEnd, Key: "bench-0-0", Digest: 2}
	d := timeOp(tr, "probe.journal.append", 500, func() {
		if _, err := j.Append(begin); err != nil {
			failed = err
		}
		if _, err := j.Append(end); err != nil {
			failed = err
		}
	})
	return d, failed
}
