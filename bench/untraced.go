package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// window is what a set of connection results adds up to.
type window struct {
	attempted, failed int
	firstErr          error
	throughput        float64 // invocations per second, summed over connections
	goodputMB         float64 // payload megabytes per second, in plus out
	invocations       int
	lat               []int64 // pooled round-trip latencies, ascending, ns
}

func summarize(results []connResult) window {
	var w window
	for _, r := range results {
		w.attempted += r.attempted
		w.failed += r.failed
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
		w.invocations += r.invocations
		if s := r.elapsed.Seconds(); s > 0 {
			w.throughput += float64(r.invocations) / s
			w.goodputMB += float64(r.bytes) / 1e6 / s
		}
	}
	w.lat = latencies(results...)
	return w
}

// latencies pools the round trips of results, ascending.
func latencies(results ...connResult) []int64 {
	var lat []int64
	for _, r := range results {
		for _, s := range r.samples {
			lat = append(lat, s.latency)
		}
	}
	slices.Sort(lat)
	return lat
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// segmentSpread splits the samples of results into segments equal
// parts of the window by completion time and returns the spread of
// the per-segment request rate and median latency.
func segmentSpread(results []connResult, d time.Duration) (rate, p50 float64) {
	count := make([]float64, segments)
	lats := make([][]int64, segments)
	for _, r := range results {
		for _, s := range r.samples {
			i := min(int(s.end*segments/d.Nanoseconds()), segments-1)
			count[i]++
			lats[i] = append(lats[i], s.latency)
		}
	}
	med := make([]float64, segments)
	for i, l := range lats {
		slices.Sort(l)
		med[i] = float64(percentile(l, 50))
	}
	return spread(count), spread(med)
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(opt options, w workload) (result, error) {
	d := time.Duration(opt.seconds * float64(time.Second))
	fmt.Fprintf(opt.log, "== %s  seed=%d  window=%v  tracing off  (%s)\n", w.name, opt.seed, d, w.why)

	// Set up several times; the last server stays for the measurement.
	var setups []float64
	var srv *proc
	var conns []*conn
	for i := 0; i < setupBoots; i++ {
		if srv != nil {
			closeConns(conns)
			stopChildren()
		}
		var err error
		if conns, err = newConns(w, opt.seed); err != nil {
			return result{}, err
		}
		var took time.Duration
		if srv, took, err = bootServer(opt, w, conns); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	defer closeConns(conns)

	warm := summarize(runAll(conns, srv.base, warmup(d), false, nil))
	cpu0, err := srv.cpuTime()
	if err != nil {
		return result{}, err
	}
	results := runAll(conns, srv.base, d, false, nil)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return result{}, err
	}
	rssKiB, err := srv.peakRSSKiB()
	if err != nil {
		return result{}, err
	}
	all := summarize(results)
	fg := summarize(results[:1])
	bg := summarize(results[len(results)-1:])
	if all.invocations == 0 || len(fg.lat) == 0 {
		return result{}, fmt.Errorf("no successful request in the window: %v", all.firstErr)
	}

	res := result{
		Attempted: warm.attempted + all.attempted + setupBoots*len(conns),
		Failed:    warm.failed + all.failed,
		Metrics: map[string]value{
			"setup_s":             num(median(setups), "s"),
			"throughput_inv_s":    num(all.throughput, "1/s"),
			"goodput_mb_s":        num(all.goodputMB, "MB/s"),
			"latency_p50_ms":      num(ms(percentile(all.lat, 50)), "ms"),
			"latency_p99_ms":      num(ms(percentile(all.lat, 99)), "ms"),
			"cpu_ms_per_inv":      num(float64((cpu1-cpu0).Microseconds())/1e3/float64(all.invocations), "ms"),
			"peak_rss_mib":        num(float64(rssKiB)/1024, "MiB"),
			"fg_latency_p50_ms":   num(ms(percentile(fg.lat, 50)), "ms"),
			"fg_latency_p99_ms":   num(ms(percentile(fg.lat, 99)), "ms"),
			"bg_throughput_inv_s": num(bg.throughput, "1/s"),
		},
	}
	res.Correct = res.Failed == 0
	if err := checkDedup(srv, conns); err != nil {
		res.Correct = false
		fmt.Fprintln(opt.log, "   INCORRECT:", err)
	}

	printMetrics(opt.log, endToEndNames, res.Metrics)
	level := tailLevel(len(all.lat))
	rate, p50 := segmentSpread(results, d)
	fmt.Fprintf(opt.log, "   latency samples: %d pooled (%d on connection 0); highest supported tail p%g = %.4f ms\n",
		len(all.lat), len(fg.lat), level, ms(percentile(all.lat, level)))
	fmt.Fprintf(opt.log, "   spread over %d segments of the window, (max-min)/median: request rate %.3f, p50 %.3f\n", segments, rate, p50)
	fmt.Fprintf(opt.log, "   set-up times of %d boots: %.4f s\n", setupBoots, setups)
	printOutcome(opt.log, res, firstOf(warm.firstErr, all.firstErr))
	return res, nil
}

func firstOf(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// checkDedup holds the server's dedup counter against the number of
// keys the interactive connection re-sent: every re-send, and nothing
// else, must have been absorbed. A server without the counter passes.
func checkDedup(srv *proc, conns []*conn) error {
	img, ok := conns[0].src.(*imageSource)
	if !ok {
		return nil
	}
	st, err := srv.stats()
	if err != nil {
		return err
	}
	if hits := st.num("DedupHits"); hits != nil && int(*hits) != img.resends {
		return fmt.Errorf("server absorbed %d duplicate keys, the client re-sent %d", int(*hits), img.resends)
	}
	return nil
}

func printOutcome(log io.Writer, res result, firstErr error) {
	fmt.Fprintf(log, "   operations attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	if firstErr != nil {
		fmt.Fprintf(log, "   first failure: %v\n", firstErr)
	}
}

func printMetrics(log io.Writer, names []string, m map[string]value) {
	for _, n := range names {
		v := m[n]
		if v.V == nil {
			fmt.Fprintf(log, "   %-34s %14s %s\n", n, "null", v.Unit)
		} else {
			fmt.Fprintf(log, "   %-34s %14.4f %s\n", n, *v.V, v.Unit)
		}
	}
}

var endToEndNames = []string{
	"setup_s", "throughput_inv_s", "goodput_mb_s", "latency_p50_ms", "latency_p99_ms",
	"cpu_ms_per_inv", "peak_rss_mib", "fg_latency_p50_ms", "fg_latency_p99_ms", "bg_throughput_inv_s",
}

// runCalibration repeats the untraced run of every workload over sets
// seeds and prints, per metric and workload, the median and how far the
// repeats drift — the table the bounds in BENCHMARK.json are set from.
func runCalibration(opt options, sets int) error {
	report := opt.log
	opt.log = io.Discard
	fmt.Fprintf(report, "calibration: %d sets, seeds %d..%d, window %.0f s, nproc %d, %s, loopback, shared host\n",
		sets, opt.seed, opt.seed+int64(sets)-1, opt.seconds, runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(report, "%-13s %-20s %12s %16s %12s\n", "workload", "metric", "median", "(max-min)/median", "IQR/median")
	for _, w := range allWorkloads {
		draws := map[string][]float64{}
		for i := 0; i < sets; i++ {
			o := opt
			o.seed += int64(i)
			res, err := runUntraced(o, w)
			stopChildren()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: seed %d: %d of %d operations failed", w.name, o.seed, res.Failed, res.Attempted)
			}
			for n, v := range res.Metrics {
				draws[n] = append(draws[n], *v.V)
			}
		}
		for _, n := range endToEndNames {
			fmt.Fprintf(report, "%-13s %-20s %12.4f %16.3f %12.3f\n", w.name, n, median(draws[n]), spread(draws[n]), iqrShare(draws[n]))
		}
	}
	return nil
}
