package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call the benchmark makes. Start
// and End are nanoseconds since the tracer's epoch. Req groups the
// spans of one HTTP request (-1 for a probe outside any request);
// Parent is the ID of the span that caused this one, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory; one goroutine owns each tracer, so
// recording takes no lock. merge joins the tracers of a run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, req int64, parent int, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Req: req, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// mergeSpans concatenates per-goroutine span lists, renumbering IDs and
// parents so they stay unique and consistent.
func mergeSpans(tracers ...*tracer) []span {
	var all []span
	for _, t := range tracers {
		if t == nil {
			continue
		}
		base := len(all)
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover (children are
// clipped to the parent and overlapping children are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// durationsByName collects span durations (ns) per name.
func durationsByName(spans []span) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Unit       string           `json:"unit"`
	SelfTimeNS map[string]int64 `json:"self_time_ns"`
	Spans      []span           `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Unit: "ns since run start",
		SelfTimeNS: selfTimes(spans), Spans: spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
