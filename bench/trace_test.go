package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus what its children cover:
// children overlapping each other count once and are clipped to the
// parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "request", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 40},
		{ID: 2, Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Name: "c", Parent: 0, Start: 90, End: 130}, // 30 beyond the parent
		{ID: 4, Name: "leaf", Parent: 1, Start: 10, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]int64{"request": 100 - (50 + 10), "a": 30 - 15, "b": 30, "c": 40, "leaf": 15}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestMergeSpansRenumbers(t *testing.T) {
	epoch := time.Now()
	a, b := newTracer(epoch, 4), newTracer(epoch, 4)
	for _, tr := range []*tracer{a, b} {
		root := tr.add("request", 0, -1, epoch, epoch.Add(10))
		tr.add("child", 0, root, epoch, epoch.Add(5))
	}
	all := mergeSpans(a, nil, b)
	if len(all) != 4 {
		t.Fatalf("merged %d spans, want 4", len(all))
	}
	for i, s := range all {
		if s.ID != i {
			t.Errorf("span %d has ID %d", i, s.ID)
		}
	}
	if all[3].Parent != 2 || all[1].Parent != 0 || all[2].Parent != -1 {
		t.Errorf("parents not renumbered: %+v", all)
	}
}
