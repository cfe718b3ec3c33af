package isolation

import (
	"bytes"
	"runtime"
	"testing"

	"dandelion/internal/dvm"
	"dandelion/internal/memctx"
)

// echoAt is rpc-small's task: a prepared 64 B echo with the given
// declared memory.
func echoAt(memBytes int) Task {
	return Task{
		Prepared: dvm.EchoProgram(),
		MemBytes: memBytes,
		Inputs: []memctx.Set{{Name: "in", Items: []memctx.Item{
			{Name: "item0", Data: bytes.Repeat([]byte{'x'}, 64)},
		}}},
	}
}

// raceEnabled is set by race_test.go: the race detector drops pooled
// objects at random, so allocation counts only hold without it.
var raceEnabled bool

// A warm run takes its memory from the pool: what it allocates is the
// harvested output (the Result, the set and item slices, the payload
// copy, and the two names), never a memory buffer — whatever memory
// the function declared.
func TestWarmExecuteAllocatesNoMemoryBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	s := sandbox(t)
	for _, memBytes := range []int{4 << 10, memctx.DefaultLimit} {
		task := echoAt(memBytes)
		run := func() {
			if _, err := s.Execute(task); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(100, run)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call beyond its 100 runs.
		perRun := (after.TotalAlloc - before.TotalAlloc) / 101
		if allocs > 6 || perRun >= 1<<10 {
			t.Errorf("memBytes %d: %v allocs, %d B per run; want ≤ 6 allocs and under 1 KiB, the smallest buffer",
				memBytes, allocs, perRun)
		}
	}
}

// BenchmarkExecute times one warm echo execution per declared memory
// size. The declaration is a bound, so all three should cost the same.
func BenchmarkExecute(b *testing.B) {
	for _, c := range []struct {
		name     string
		memBytes int
	}{
		{"4KiB", 4 << 10},
		{"64KiB", 64 << 10},
		{"undeclared", memctx.DefaultLimit},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New("cheri")
			if err != nil {
				b.Fatal(err)
			}
			task := echoAt(c.memBytes)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Execute(task); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
