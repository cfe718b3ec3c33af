// Per-worker circuit breaker: the isolation layer between the cluster
// manager and a flapping remote worker. Every RemoteNode owns one; the
// transport chokepoints (do / doStream) feed it — consecutive
// transport-shaped failures (ErrRemote) trip it open, and while open
// every call fast-fails locally instead of burning a timeout on a
// worker that is known-bad. After a cooldown the breaker half-opens:
// exactly one probe request is admitted, and its outcome either closes
// the breaker (worker recovered) or re-opens it for another cooldown.
// Application errors a worker answers per request never count — a
// worker that responds is alive, whatever it says.
//
// The manager consults breaker state when routing (see pick /
// pickSurvivor in cluster.go): workers inside an open cooldown are
// skipped, workers whose cooldown expired report half-open and receive
// traffic again so the probe can actually happen.
package cluster

import (
	"sync"
	"time"
)

// Breaker states, as reported by BreakerNode.BreakerState and shown in
// the /stats/cluster Routing entries.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// Breaker defaults (see RemoteOptions.BreakerThreshold / BreakerCooldown).
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = time.Second
)

// BreakerNode is the optional transport-health interface of a worker:
// the manager skips workers reporting BreakerOpen when picking routes,
// and AggregateStats surfaces the breaker state, its counters, and the
// transport's in-place retries per worker. A RemoteNode satisfies it;
// in-process platforms (which have no transport to fail) do not.
type BreakerNode interface {
	// BreakerState reports "closed", "open", or "half-open". An open
	// breaker whose cooldown has expired reports half-open even before
	// a probe is admitted, so routing layers send it the traffic the
	// probe needs.
	BreakerState() string
	// BreakerCounters reports cumulative trips (transitions to open,
	// including half-open probes that failed) and fast-fails (calls
	// refused locally while open).
	BreakerCounters() (trips, fastFails uint64)
	// Retries reports in-place transport retries issued (not the
	// original attempts).
	Retries() uint64
}

// breaker is a closed/open/half-open circuit breaker. A nil breaker or
// a negative threshold disables it (allow always true, state closed).
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu          sync.Mutex
	open        bool
	probing     bool // a half-open probe is in flight
	openedAt    time.Time
	consecutive int
	trips       uint64
	fastFails   uint64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold == 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a call may proceed. Closed: always. Open: only
// once the cooldown expired, and then exactly one probe at a time
// (half-open); everything else fast-fails and is counted.
func (b *breaker) allow() bool {
	if b == nil || b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if !b.probing && b.now().Sub(b.openedAt) >= b.cooldown {
		b.probing = true
		return true
	}
	b.fastFails++
	return false
}

// success records a call the worker answered (2xx or an application
// error): the failure streak resets and an open breaker closes.
func (b *breaker) success() {
	if b == nil || b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open = false
	b.probing = false
	b.consecutive = 0
}

// failure records a transport-shaped failure. threshold consecutive
// failures trip a closed breaker open; a failed half-open probe re-opens
// for another cooldown. Both transitions count as trips.
func (b *breaker) failure() {
	if b == nil || b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.open {
		if b.probing {
			b.probing = false
			b.openedAt = b.now()
			b.trips++
		}
		return
	}
	if b.consecutive >= b.threshold {
		b.open = true
		b.openedAt = b.now()
		b.trips++
	}
}

// state reports the breaker's routing-visible state; an open breaker
// past its cooldown reports half-open so routing layers resume sending
// it the traffic a probe needs.
func (b *breaker) state() string {
	if b == nil || b.threshold < 0 {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return BreakerClosed
	}
	if b.probing || b.now().Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return BreakerOpen
}

func (b *breaker) counters() (trips, fastFails uint64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips, b.fastFails
}

// breakerOpenNode reports whether a worker's breaker refuses traffic
// right now (open and still cooling down). Workers without a breaker
// always accept.
func breakerOpenNode(n Node) bool {
	if bn, ok := n.(BreakerNode); ok {
		return bn.BreakerState() == BreakerOpen
	}
	return false
}
