package stats

import (
	"sync"
	"testing"
)

func TestShardCountIsPowerOfTwo(t *testing.T) {
	n := ShardCount()
	if n < 1 || n&(n-1) != 0 {
		t.Fatalf("ShardCount() = %d, want a power of two", n)
	}
}

func TestShardIndexInRange(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64} {
		for i := 0; i < 100; i++ {
			if idx := ShardIndex(n); idx < 0 || idx >= n {
				t.Fatalf("ShardIndex(%d) = %d out of range", n, idx)
			}
		}
	}
}

// TestShardIndexSpreadsGoroutines checks the affinity property the
// sharding relies on: many concurrent goroutines should not all land
// on one shard (that would re-create the contention sharding removes).
func TestShardIndexSpreadsGoroutines(t *testing.T) {
	if ShardCount() < 2 {
		t.Skip("single-shard machine")
	}
	const goroutines = 64
	seen := make(chan int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen <- ShardIndex(ShardCount())
		}()
	}
	wg.Wait()
	close(seen)
	distinct := map[int]bool{}
	for idx := range seen {
		distinct[idx] = true
	}
	if len(distinct) < 2 {
		t.Errorf("64 goroutines all picked shard set %v; want spread over >= 2 shards", distinct)
	}
}
