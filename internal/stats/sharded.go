// Shard picking for hot-path bookkeeping. A single shared counter —
// mutex-guarded or even a bare atomic — serializes every updater on one
// cache line, so under parallel load the counter itself becomes the
// bottleneck. A sharded counter splits the value across
// GOMAXPROCS-scaled, cache-line padded shards: updaters pick a
// goroutine-affine shard and increment it without touching the lines
// other goroutines write, and readers merge the shards lazily.
// internal/core's hotCounters is built this way on ShardCount and
// ShardIndex, one shard struct holding every counter an event ticks.
package stats

import (
	"runtime"
	"unsafe"
)

// CacheLinePad is the per-shard padding granularity: large enough for
// the 64-byte lines of x86-64 and the 128-byte lines of apple/arm64
// prefetch pairs, so neighboring shards never false-share.
const CacheLinePad = 128

// shardCount is the number of shards of every sharded counter: the
// smallest power of two >= GOMAXPROCS at package init, floored at 8 —
// GOMAXPROCS may be raised after init (cgroup resizes, -cpu test runs)
// and a few idle padded shards cost only a KiB — and capped so a huge
// machine does not make every counter megabytes wide. A power of two
// lets the shard pick mask instead of divide.
var shardCount = func() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 256 {
		n <<= 1
	}
	return n
}()

// ShardCount reports the number of shards a sharded counter should
// carry.
func ShardCount() int { return shardCount }

// ShardIndex returns a goroutine-affine index in [0, n). n must be a
// power of two. The index is derived from the address of a stack
// variable: distinct goroutines live on distinct stacks, so concurrent
// callers spread across shards, while one goroutine keeps hitting the
// same shard (its stack moves only on growth). There is no shared
// state at all in the pick — that is the point.
func ShardIndex(n int) int {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	// Fibonacci hashing: spread the stack address's entropy (which
	// lives in the middle bits — stacks are size-class aligned) across
	// the low bits the mask keeps.
	h *= 0x9E3779B97F4A7C15
	return int((h >> 32) & uint64(n-1))
}
