// Command bench is the repository's benchmark: it boots a real
// cmd/dandelion process per workload, drives it over loopback HTTP
// from two closed-loop connections, validates every response against
// inputs generated from the seed, and prints every metric by name.
// README.md in this directory is the manual; run.sh is the entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	setupBoots      = 9                        // server boots per untraced run; setup_s is their median
	segments        = 3                        // the measured window is also reported in this many parts
	floorRespHeader = "X-Floor-Response-Bytes" // asks the floor echo for a body of this size
)

// warmup is how long the connections are driven before a window of
// length d opens.
func warmup(d time.Duration) time.Duration { return d / 10 }

// value is one reported metric. A nil V prints as null: the server
// field the metric reads is absent.
type value struct {
	V    *float64 `json:"value"`
	Unit string   `json:"unit"`
}

func num(v float64, unit string) value { return value{V: &v, Unit: unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options of one run.
type options struct {
	server  string // path of the cmd/dandelion binary
	self    string // path of this binary, re-executed as the floor echo
	scratch string // directory for logs, journals and probe files
	outDir  string // directory for trace-<workload>.json
	seed    int64
	seconds float64
	log     io.Writer // human-readable report
}

// children tracks started processes so a signal can stop them.
var children struct {
	sync.Mutex
	list []*proc
}

func track(p *proc) {
	children.Lock()
	children.list = append(children.list, p)
	children.Unlock()
}

func main() {
	var (
		opt        options
		name       = flag.String("workload", "", "workload to run: rpc-small, batch-ingest, batch-egress, two-tenant (empty: all four, untraced then traced)")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		calibrate  = flag.Int("calibrate", 0, "run this many same-code sets of every workload (seeds seed, seed+1, ...) and print each end-to-end metric's median and spread")
		serveFloor = flag.Bool("serve-floor", false, "serve the bare net/http echo the transport floor is measured against")
		addr       = flag.String("addr", "", "listen address under -serve-floor")
	)
	flag.StringVar(&opt.server, "server", "", "path of the built cmd/dandelion binary")
	flag.StringVar(&opt.scratch, "scratch", ".bench_build", "directory for server logs, journals and probe files")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory the traced run writes trace-<workload>.json to")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured window, seconds")
	flag.Parse()

	if *serveFloor {
		fmt.Fprintln(os.Stderr, http.ListenAndServe(*addr, floorHandler()))
		os.Exit(1)
	}
	opt.log = os.Stdout
	var err error
	if opt.self, err = os.Executable(); err != nil {
		fatal(err)
	}
	if opt.server == "" {
		fatal(fmt.Errorf("-server is required (bench/run.sh builds it and passes it)"))
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(1)
	}()

	switch {
	case *calibrate > 0:
		err = runCalibration(opt, *calibrate)
	case *name == "":
		for _, w := range allWorkloads {
			if err = runAndPrint(opt, w, false); err == nil {
				err = runAndPrint(opt, w, true)
			}
			if err != nil {
				break
			}
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		err = runAndPrint(opt, w, *trace != 0)
	}
	if err != nil {
		fatal(err)
	}
}

func stopChildren() {
	children.Lock()
	defer children.Unlock()
	for _, p := range children.list {
		p.stop()
	}
	children.list = nil
}

func fatal(err error) {
	stopChildren()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAndPrint runs one workload and prints its report, ending with the
// result as one JSON line.
func runAndPrint(opt options, w workload, traced bool) error {
	var res result
	var err error
	if traced {
		res, err = runTraced(opt, w)
	} else {
		res, err = runUntraced(opt, w)
	}
	stopChildren()
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.log, "%s\n", line)
	return nil
}

// floorHandler is the transport floor: it drains the request body and
// answers with as many bytes as the request asks for.
func floorHandler() http.Handler {
	filler := make([]byte, 64<<10)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.Header.Get(floorRespHeader))
		w.Header().Set("Content-Length", strconv.Itoa(n))
		for n > 0 {
			k := min(n, len(filler))
			w.Write(filler[:k])
			n -= k
		}
	})
}

// bootServer starts the server for w, registers what it needs and
// returns once every connection has one validated response. The time
// from exec to that point is the set-up time.
func bootServer(opt options, w workload, conns []*conn) (*proc, time.Duration, error) {
	args := []string{"-workloads", "all"}
	journalDir := ""
	if w.journal {
		var err error
		if journalDir, err = os.MkdirTemp(opt.scratch, "journal-"); err != nil {
			return nil, 0, err
		}
		args = append(args, "-journal", journalDir)
	}
	t0 := time.Now()
	p, err := startProc(opt.server, args, filepath.Join(opt.scratch, "server-"+w.name+".log"), "/stats")
	if err != nil {
		os.RemoveAll(journalDir)
		return nil, 0, err
	}
	p.tmp = journalDir
	track(p)
	if w.register != nil {
		if err := w.register(p.base); err != nil {
			return nil, 0, fmt.Errorf("register: %w", err)
		}
	}
	for i, c := range conns {
		if r := c.run(p.base, 0, false, nil); r.failed > 0 {
			return nil, 0, fmt.Errorf("first response of connection %d: %w", i, r.firstErr)
		}
	}
	return p, time.Since(t0), nil
}

func newConns(w workload, seed int64) ([]*conn, error) {
	srcs, err := w.sources(seed)
	if err != nil {
		return nil, err
	}
	conns := make([]*conn, len(srcs))
	for i, s := range srcs {
		conns[i] = newConn(s)
	}
	return conns, nil
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}
