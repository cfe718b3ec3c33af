package autoscale

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestAdmissionDefaultsAndClamps(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	// An idle tenant gets the minimum window.
	if w := a.Window("idle", 0); w != 1 {
		t.Fatalf("idle window = %d, want 1", w)
	}
	// A huge burst is clamped to MaxBatch.
	if w := a.Admit("burst", 100000, 1); w != 64 {
		t.Fatalf("burst window = %d, want 64 (MaxBatch)", w)
	}
}

func TestAdmissionWindowTracksDemand(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MinBatch: 2, MaxBatch: 16})
	// Sustained demand of ~8 concurrent invocations widens the window to
	// cover it.
	now := 0.0
	for i := 0; i < 10; i++ {
		w := a.Admit("t", 8, now)
		if w < 2 || w > 16 {
			t.Fatalf("window %d out of clamp range", w)
		}
		a.Finish("t", 8, now+0.5)
		now++
	}
	if w := a.Window("t", now); w < 8 {
		t.Fatalf("window after sustained demand = %d, want >= 8", w)
	}
	// Long after demand stops, conservative scale-down shrinks the
	// window back toward the minimum.
	if w := a.Window("t", now+500); w != 2 {
		t.Fatalf("window after idle = %d, want MinBatch 2", w)
	}
}

func TestAdmissionTenantsAreIndependent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxBatch: 32})
	a.Admit("flood", 1000, 0)
	if w := a.Window("interactive", 0); w != 1 {
		t.Fatalf("interactive window = %d, want 1 despite flood tenant", w)
	}
	if w := a.Window("flood", 0); w != 32 {
		t.Fatalf("flood window = %d, want 32", w)
	}
}

func TestAdmissionSetClamp(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	if min, max := a.Clamp(); min != 1 || max != 64 {
		t.Fatalf("default clamp = [%d, %d], want [1, 64]", min, max)
	}
	// Tighten at runtime: a flood that previously earned the full window
	// is now capped.
	a.Admit("flood", 100000, 0)
	a.SetClamp(2, 8)
	if w := a.Window("flood", 0); w != 8 {
		t.Fatalf("window after SetClamp = %d, want 8", w)
	}
	if w := a.Window("idle", 0); w != 2 {
		t.Fatalf("idle window after SetClamp = %d, want min 2", w)
	}
	// Degenerate inputs normalize like the constructor: non-positive
	// values take defaults, inverted pairs raise max to min.
	a.SetClamp(0, 0)
	if min, max := a.Clamp(); min != 1 || max != 64 {
		t.Fatalf("clamp after SetClamp(0,0) = [%d, %d], want [1, 64]", min, max)
	}
	a.SetClamp(16, 4)
	if min, max := a.Clamp(); min != 16 || max != 16 {
		t.Fatalf("inverted clamp = [%d, %d], want [16, 16]", min, max)
	}
}

func TestAdmissionByteClampNarrowsWindow(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxWindowBytes: 8 << 20})
	// A byte-heavy flood: sustained demand would earn the full 64-item
	// window, but at ~1 MiB per invocation the 8 MiB budget holds 8.
	w := 0
	for i := 0; i < 10; i++ {
		w = a.AdmitBytes("analytics", 64, 64<<20, float64(i))
	}
	if w != 8 {
		t.Fatalf("byte-heavy window = %d, want 8 (8 MiB budget / 1 MiB avg)", w)
	}
	// The same demand in tiny payloads keeps the full window.
	for i := 0; i < 10; i++ {
		w = a.AdmitBytes("interactive", 64, 64*64, float64(i))
	}
	if w != 64 {
		t.Fatalf("tiny-payload window = %d, want 64", w)
	}
	// Window() reads carry the clamp too.
	if got := a.Window("analytics", 10); got != 8 {
		t.Fatalf("Window read = %d, want 8", got)
	}
}

func TestAdmissionByteClampNeverBelowOne(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MinBatch: 4, MaxWindowBytes: 1 << 20})
	// One 16 MiB request: the byte clamp undercuts MinBatch — a single
	// oversized request must still admit — but never reaches zero.
	if w := a.AdmitBytes("huge", 1, 16<<20, 0); w != 1 {
		t.Fatalf("oversized-request window = %d, want 1", w)
	}
}

func TestAdmissionAdmitWithoutBytesLeavesEWMA(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxWindowBytes: 1 << 20})
	a.AdmitBytes("t", 4, 4<<20, 0) // avg 1 MiB -> window 1
	if w := a.Window("t", 0); w != 1 {
		t.Fatalf("window = %d, want 1", w)
	}
	// Size-unknown admits must not dilute the byte average toward zero.
	a.Admit("t", 64, 1)
	if w := a.Window("t", 1); w != 1 {
		t.Fatalf("window after size-unknown admits = %d, want 1", w)
	}
}

// TestAdmissionStateIsFlat: ten virtual minutes of 600 requests/s leave
// a tenant's scaler exactly as large as after its first request — the
// same checkpoint ring, no log — and a steady request costs no
// allocation.
func TestAdmissionStateIsFlat(t *testing.T) {
	const rate, seconds = 600, 600
	a := NewAdmission(AdmissionConfig{})
	a.AdmitBytes("t", 4, 4<<18, 0)
	a.Finish("t", 4, 0.5/rate)
	s := a.tenants["t"].scaler
	ring := &s.checkpoints[0]
	slots, capacity := len(s.checkpoints), cap(s.checkpoints)

	for i := 1; i < rate*seconds; i++ {
		now := float64(i) / rate
		a.AdmitBytes("t", 4, 4<<18, now)
		a.Finish("t", 4, now+0.5/rate)
		a.Window("t", now+0.5/rate)
	}
	if a.tenants["t"].scaler != s || &s.checkpoints[0] != ring || len(s.checkpoints) != slots || cap(s.checkpoints) != capacity {
		t.Fatalf("scaler state changed: %d/%d slots, want the first request's %d/%d", len(s.checkpoints), cap(s.checkpoints), slots, capacity)
	}
	if got := s.Concurrency(); got != 0 {
		t.Fatalf("concurrency = %d after balanced admits and finishes", got)
	}

	now := float64(seconds)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 1.0 / rate
		a.AdmitBytes("t", 4, 4<<18, now)
		a.Finish("t", 4, now)
		a.Window("t", now)
	})
	if allocs != 0 {
		t.Fatalf("AdmitBytes+Finish+Window allocate %v times per request, want 0", allocs)
	}
}

// TestAdmissionConcurrentJitteredClocks: callers read their clock
// before taking the admission lock, so concurrent callers reach the
// scaler slightly out of order. Under -race, with every clock jittered
// by up to ±2 ms, the windows stay inside the clamp and the tenants'
// books balance.
func TestAdmissionConcurrentJitteredClocks(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxBatch: 32})
	start := time.Now()
	tenants := []string{"a", "b"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			clock := func() float64 {
				return time.Since(start).Seconds() + (rng.Float64()-0.5)*0.004
			}
			for i := 0; i < 2000; i++ {
				tenant, n := tenants[(g+i)%len(tenants)], 1+rng.Intn(8)
				if w := a.AdmitBytes(tenant, n, int64(n)<<10, clock()); w < 1 || w > 32 {
					t.Errorf("window %d outside [1, 32]", w)
					return
				}
				if w := a.Window(tenant, clock()); w < 1 || w > 32 {
					t.Errorf("window %d outside [1, 32]", w)
					return
				}
				a.Finish(tenant, n, clock())
			}
		}(g)
	}
	wg.Wait()
	for _, tenant := range tenants {
		if c := a.tenants[tenant].scaler.Concurrency(); c != 0 {
			t.Fatalf("tenant %s: concurrency %d after every admit finished", tenant, c)
		}
	}
}

// BenchmarkAdmission: one batch request's admission work — AdmitBytes,
// a Window re-read and Finish — on a tenant with 60 s of history at
// 600 requests/s already behind it.
func BenchmarkAdmission(b *testing.B) {
	const rate = 600
	a := NewAdmission(AdmissionConfig{})
	now := 0.0
	request := func() {
		a.AdmitBytes("t", 4, 4<<18, now)
		a.Window("t", now)
		a.Finish("t", 4, now+0.5/rate)
		now += 1.0 / rate
	}
	for i := 0; i < 60*rate; i++ {
		request()
	}
	b.ReportAllocs()
	for b.Loop() {
		request()
	}
}
