package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke builds cmd/dandelion and the benchmark and runs every
// workload for half a second, untraced and traced, requiring zero failed
// operations and every declared metric: a change that breaks a route,
// flag or helper the benchmark binds to fails here, in tier-1.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots servers")
	}
	dir := t.TempDir()
	server, self := filepath.Join(dir, "dandelion"), filepath.Join(dir, "bench")
	for bin, pkg := range map[string]string{server: "dandelion/cmd/dandelion", self: "dandelion/bench"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	t.Cleanup(stopChildren)
	opt := options{server: server, self: self, scratch: dir, outDir: filepath.Join(dir, "out"), seed: 3, seconds: 0.5, log: io.Discard}
	if testing.Verbose() {
		opt.log = os.Stdout
	}
	units := map[string]string{}
	doc := readDeclared(t)
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range allWorkloads {
		for _, mode := range []struct {
			name  string
			run   func(options, workload) (result, error)
			names []string
		}{{"untraced", runUntraced, endToEndNames}, {"traced", runTraced, perLayerNames}} {
			res, err := mode.run(opt, w)
			stopChildren()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, mode.name, res.Correct, res.Attempted, res.Failed)
			}
			for _, n := range mode.names {
				if v, ok := res.Metrics[n]; !ok || v.V == nil {
					t.Errorf("%s %s: metric %s missing or null", w.name, mode.name, n)
				} else if v.Unit != units[n] {
					t.Errorf("%s %s: metric %s reported in %q, declared in %q", w.name, mode.name, n, v.Unit, units[n])
				}
			}
			if len(res.Metrics) != len(mode.names) {
				t.Errorf("%s %s: %d metrics reported, %d declared", w.name, mode.name, len(res.Metrics), len(mode.names))
			}
		}
		if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: traced run left no trace file: %v", w.name, err)
		}
	}
}

// declared is what BENCHMARK.json says the benchmark reports.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBenchmarkJSON holds BENCHMARK.json against the code: the same
// workloads and the same metric names, in the same order. TestSmoke
// compares the units.
func TestBenchmarkJSON(t *testing.T) {
	doc := readDeclared(t)
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, doc.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		names    []string
	}{{"end_to_end", doc.EndToEnd, endToEndNames}, {"per_layer", doc.PerLayer, perLayerNames}} {
		if len(c.declared) != len(c.names) {
			t.Errorf("%s: %d metrics declared, %d reported", c.kind, len(c.declared), len(c.names))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.names[i] {
				t.Errorf("%s metric %d is %q in BENCHMARK.json, %q in the code", c.kind, i, m.Name, c.names[i])
			}
		}
	}
}
