package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// call describes the HTTP request a source has just encoded.
type call struct {
	path        string      // route and query, e.g. /invoke/E?input=In
	header      [][2]string // request headers
	invocations int         // invocations the request carries
	bytesIn     int         // payload bytes sent (item data, no framing)
	respBytes   int         // expected response body size, for the floor server
}

// source generates one connection's traffic: it encodes the next
// request from its seeded inputs and judges the answer bit-exactly.
type source interface {
	// next encodes the connection's next request body into body.
	next(body *bytes.Buffer) call
	// check validates the response to the request next just built and
	// returns the payload bytes it carried. Any error is one failed
	// operation: a non-2xx status, a per-item error, or wrong bytes.
	check(status int, resp []byte) (bytesOut int, err error)
}

// sample is one successful request: when it completed (ns since the
// window opened) and how long the round trip took.
type sample struct {
	end, latency int64
}

// connResult is what one connection observed over one window.
type connResult struct {
	samples     []sample
	attempted   int // HTTP requests sent
	failed      int // requests that failed or did not validate
	invocations int // invocations in successful requests
	bytes       int64
	elapsed     time.Duration // window open to the last completion
	firstErr    error
}

// conn is one closed-loop client: a single keep-alive connection that
// sends its next request only after the previous answer is validated.
type conn struct {
	client *http.Client
	src    source
	body   bytes.Buffer
	resp   bytes.Buffer
	reqSeq int64
}

func newConn(src source) *conn {
	return &conn{src: src, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// run drives the connection against base until the window of length d
// closes. With floor set, the same bodies go to the transport-floor
// echo instead and answers are not validated. With tr set, every
// request records encode, roundtrip and decode spans under one root.
func (c *conn) run(base string, d time.Duration, floor bool, tr *tracer) connResult {
	res := connResult{samples: make([]sample, 0, 1<<14)}
	start := time.Now()
	deadline := start.Add(d)
	for t0 := start; ; { // at least one request, so d = 0 sends exactly one
		c.body.Reset()
		call := c.src.next(&c.body)
		url, t1 := base+call.path, time.Now()
		if floor {
			url = base + "/floor"
		}
		status, err := c.exchange(url, call, floor)
		t2 := time.Now()
		var out int
		if err == nil && !floor {
			out, err = c.src.check(status, c.resp.Bytes())
		}
		if err == nil {
			res.samples = append(res.samples, sample{end: t2.Sub(start).Nanoseconds(), latency: t2.Sub(t1).Nanoseconds()})
			res.invocations += call.invocations
			res.bytes += int64(call.bytesIn + out)
			if tr != nil {
				t3 := time.Now()
				root := tr.add("request", c.reqSeq, -1, t0, t3)
				tr.add("client.encode", c.reqSeq, root, t0, t1)
				tr.add("client.roundtrip", c.reqSeq, root, t1, t2)
				tr.add("client.decode", c.reqSeq, root, t2, t3)
			}
		}
		c.reqSeq++
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %w", call.path, err)
			}
		}
		if t0 = time.Now(); !t0.Before(deadline) {
			break
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// exchange posts the body next just encoded and reads the whole answer
// into c.resp. The floor echo is told how large an answer to send.
func (c *conn) exchange(url string, call call, floor bool) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return 0, err
	}
	for _, h := range call.header {
		req.Header.Set(h[0], h[1])
	}
	if floor {
		req.Header.Set(floorRespHeader, strconv.Itoa(call.respBytes))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// runAll drives every connection for one window at the same time and
// returns their results in order.
func runAll(conns []*conn, base string, d time.Duration, floor bool, tracers []*tracer) []connResult {
	out := make([]connResult, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.run(base, d, floor, tr)
		}()
	}
	wg.Wait()
	return out
}
