// Batch admission windows. The frontend's /invoke-batch route must not
// trust the client's framing: a tenant may pack ten thousand
// invocations into one HTTP body. Admission turns the autoscaler's
// demand signal into a per-tenant batch window — the number of
// invocations the platform is willing to drive through one
// InvokeBatch call for that tenant right now — so oversized client
// batches are coalesced into right-sized sub-batches that the DRR
// scheduling plane can interleave across tenants.
//
// The window tracks provisioned capacity the same way the KPA tracks
// replicas: each tenant has an FnScaler fed by invocation arrivals and
// completions, and the window is replicas × TargetConcurrency, clamped
// to [MinBatch, MaxBatch]. A tenant with sustained demand earns a wider
// window (fewer, larger sub-batches — better amortization); a bursty or
// idle tenant gets a narrow one (tighter interleaving).
package autoscale

import (
	"math"
	"sync"
)

// AdmissionConfig parameterizes per-tenant batch admission windows.
type AdmissionConfig struct {
	// MinBatch and MaxBatch clamp the window (defaults 1 and 64).
	MinBatch int
	MaxBatch int
	// MaxWindowBytes caps the cumulative payload bytes one window
	// should admit (default DefaultMaxWindowBytes). The item window is
	// divided down by the tenant's observed bytes-per-invocation (an
	// EWMA fed through AdmitBytes), so a tenant sending 1 MiB payloads
	// gets a proportionally narrower window than one sending 64-byte
	// ones: windows meter memory and engine-hold time, and both follow
	// bytes, not invocation count. The byte clamp can undercut
	// MinBatch down to 1 — a single oversized request must still admit.
	MaxWindowBytes int64
	// Scaler configures the per-tenant FnScaler behind the window;
	// zero values select the KPA-like defaults.
	Scaler Config
}

// DefaultMaxWindowBytes is the default per-window payload budget
// (32 MiB): half the frontend's default body cap, so even two tenants
// at full window pressure stay within one body's worth of buffered
// payload.
const DefaultMaxWindowBytes int64 = 32 << 20

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MinBatch <= 0 {
		c.MinBatch = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = c.MinBatch
	}
	if c.MaxWindowBytes <= 0 {
		c.MaxWindowBytes = DefaultMaxWindowBytes
	}
	return c
}

// byteAlpha is the EWMA weight of the newest bytes-per-invocation
// sample: heavy enough that a tenant switching from KB to MB payloads
// narrows its window within a few batches, light enough that one
// outlier request does not collapse it.
const byteAlpha = 0.25

// Admission computes batch admission windows per tenant. It is safe for
// concurrent use; callers supply the clock (seconds) on every call, so
// tests can drive a virtual timeline.
type Admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	tenants map[string]*tenantAdmission
}

// tenantAdmission is one tenant's window state: the KPA-style demand
// scaler plus the byte dimension — an EWMA of payload bytes per
// invocation that the window clamp divides against.
type tenantAdmission struct {
	scaler   *FnScaler
	avgBytes float64
}

// NewAdmission creates an Admission with no tenants yet.
func NewAdmission(cfg AdmissionConfig) *Admission {
	return &Admission{cfg: cfg.withDefaults(), tenants: map[string]*tenantAdmission{}}
}

func (a *Admission) tenantLocked(tenant string) *tenantAdmission {
	s := a.tenants[tenant]
	if s == nil {
		s = &tenantAdmission{scaler: NewFnScaler(a.cfg.Scaler)}
		a.tenants[tenant] = s
	}
	return s
}

// Admit records the arrival of n invocations for tenant at time now and
// returns the batch window the caller should split the work into. The
// n arrivals are one scaler event, so the cost does not grow with n.
// Callers that know the payload size use AdmitBytes instead, so the
// byte clamp sees fresh data.
func (a *Admission) Admit(tenant string, n int, now float64) int {
	return a.AdmitBytes(tenant, n, 0, now)
}

// AdmitBytes is Admit with the arrivals' cumulative payload size: the
// tenant's bytes-per-invocation EWMA absorbs the sample and the
// returned window carries the byte clamp (MaxWindowBytes / EWMA). A
// non-positive bytes leaves the EWMA untouched — size unknown.
func (a *Admission) AdmitBytes(tenant string, n int, bytes int64, now float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenantLocked(tenant)
	t.scaler.arrive(now, n)
	if n > 0 && bytes > 0 {
		per := float64(bytes) / float64(n)
		if t.avgBytes == 0 {
			t.avgBytes = per
		} else {
			t.avgBytes += byteAlpha * (per - t.avgBytes)
		}
	}
	t.scaler.Tick(now)
	return a.windowLocked(t)
}

// Finish records the completion of n invocations for tenant at time
// now, letting the window shrink once demand subsides.
func (a *Admission) Finish(tenant string, n int, now float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenantLocked(tenant)
	t.scaler.done(now, n)
	t.scaler.Tick(now)
}

// SetClamp overrides the [MinBatch, MaxBatch] window clamp at runtime —
// the control plane's admission-window override. Non-positive values
// fall back to the defaults (1 and 64), and max is raised to min when
// the pair is inverted, exactly as at construction. The new clamp
// applies to every tenant from its next window read.
func (a *Admission) SetClamp(min, max int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg.MinBatch, a.cfg.MaxBatch = min, max
	a.cfg = a.cfg.withDefaults()
}

// Clamp reports the current [MinBatch, MaxBatch] window clamp.
func (a *Admission) Clamp() (min, max int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.MinBatch, a.cfg.MaxBatch
}

// Window reads the tenant's current batch window without recording
// demand.
func (a *Admission) Window(tenant string, now float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenantLocked(tenant)
	t.scaler.Tick(now)
	return a.windowLocked(t)
}

func (a *Admission) windowLocked(t *tenantAdmission) int {
	cfg := t.scaler.cfg
	w := int(math.Ceil(float64(t.scaler.Replicas()) * cfg.TargetConcurrency))
	if w < a.cfg.MinBatch {
		w = a.cfg.MinBatch
	}
	if w > a.cfg.MaxBatch {
		w = a.cfg.MaxBatch
	}
	// Byte clamp: the window meters memory and engine-hold time, and a
	// tenant averaging avgBytes per invocation fills the MaxWindowBytes
	// budget after budget/avgBytes items. May undercut MinBatch (one
	// oversized request must still go through), never below 1.
	if t.avgBytes > 0 {
		if byBytes := int(float64(a.cfg.MaxWindowBytes) / t.avgBytes); byBytes < w {
			w = byBytes
			if w < 1 {
				w = 1
			}
		}
	}
	return w
}
