// The admin surface: the HTTP face of the dynamic control plane
// (internal/ctlplane). Every route terminates in ctlplane.Reconfigurer
// methods on the platform, so an operator's curl and an SDK caller's
// method call take the same path; when a cluster manager is attached
// (Config.Cluster), tenant-weight updates additionally fan out to every
// registered worker, making one PUT reconfigure the fleet.
//
// Routes (all under /admin, all requiring the bearer token configured
// with Config.AdminToken — the surface is disabled entirely when no
// token is set):
//
//	GET  /admin/tenants/<name>  tenant's DRR weight and current
//	     compute-plane dispatch share
//	PUT  /admin/tenants/<name>  body {"weight": N} (N ≥ 1); applies to
//	     this node and fans out through the cluster manager when one is
//	     attached — the response reports how many workers applied it
//	GET  /admin/engines         engine-pool sizes, autoscale switch,
//	     cumulative resizes, admission clamp
//	PUT  /admin/engines         body with any of {"compute", "comm",
//	     "autoscale", "admission_min", "admission_max"}; omitted fields
//	     keep their current values
//	POST /admin/drain           stop admitting new invocations
//	     (?resume=1 re-admits); response reports the draining state
//
// docs/ADMIN.md documents the surface with curl examples.
package frontend

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// AdminTokenHeader is the alternative to the Authorization bearer
// header for supplying the admin token.
const AdminTokenHeader = "X-Admin-Token"

// adminAuth gates a handler on the configured admin token. With no
// token configured the surface is disabled (403 on every request); with
// one, the request must present it as `Authorization: Bearer <token>`
// or in X-Admin-Token. Comparison is constant-time.
func (s *server) adminAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adminToken == "" {
			jsonError(w, http.StatusForbidden, "admin API disabled: no admin token configured")
			return
		}
		got := strings.TrimSpace(r.Header.Get(AdminTokenHeader))
		if got == "" {
			got = strings.TrimSpace(strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer "))
		}
		if subtle.ConstantTimeCompare([]byte(got), []byte(s.adminToken)) != 1 {
			jsonError(w, http.StatusUnauthorized, "bad admin token")
			return
		}
		h(w, r)
	}
}

// writeJSON serializes a success response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

var statsBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSONBuffered serializes v fully before touching the response:
// a snapshot that fails mid-encode answers 500 instead of leaking a
// truncated body under an already-committed 200, and Content-Length
// lets clients detect a cut transfer. The stats routes use this —
// their values aggregate live gauges (including remote workers'), so
// mid-encode failure is a real possibility there, and their bodies are
// small enough that buffering costs nothing.
func writeJSONBuffered(w http.ResponseWriter, v any) {
	buf := statsBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		statsBufPool.Put(buf)
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding stats: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// adminTenantView is the wire shape of one tenant's control-plane state.
type adminTenantView struct {
	Tenant string  `json:"tenant"`
	Weight int     `json:"weight"`
	Share  float64 `json:"share"`
	// Workers is the number of nodes a PUT applied to: the count
	// cluster.Manager.SetTenantWeight returns when a cluster manager is
	// attached (0 when no worker took it), else 1 for the local node.
	// Always present on PUT, omitted on GET.
	Workers *int `json:"workers,omitempty"`
}

func (s *server) handleAdminTenant(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/admin/tenants/")
	if name == "" || strings.Contains(name, "/") {
		jsonError(w, http.StatusBadRequest, "need /admin/tenants/<name>")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, adminTenantView{
			Tenant: name,
			Weight: s.p.TenantWeight(name),
			Share:  s.p.TenantShare(name),
		})
	case http.MethodPut:
		var body struct {
			Weight int `json:"weight"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			jsonError(w, http.StatusBadRequest, "bad body: "+err.Error())
			return
		}
		if body.Weight < 1 {
			jsonError(w, http.StatusBadRequest, "weight must be >= 1")
			return
		}
		// Apply locally, then fan out: the local platform may or may not
		// be registered in the cluster manager, and SetTenantWeight is
		// idempotent, so applying twice is harmless.
		s.p.SetTenantWeight(name, body.Weight)
		workers := 1
		if s.cluster != nil {
			workers = s.cluster.SetTenantWeight(name, body.Weight)
		}
		writeJSON(w, adminTenantView{
			Tenant:  name,
			Weight:  s.p.TenantWeight(name),
			Share:   s.p.TenantShare(name),
			Workers: &workers,
		})
	default:
		w.Header().Set("Allow", "GET, PUT")
		jsonError(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}

// adminEnginesView is the wire shape of the node's engine/autoscale
// state; the pointer fields double as the PUT request body, where nil
// means "leave unchanged".
type adminEnginesView struct {
	Compute      *int  `json:"compute,omitempty"`
	Comm         *int  `json:"comm,omitempty"`
	Autoscale    *bool `json:"autoscale,omitempty"`
	AdmissionMin *int  `json:"admission_min,omitempty"`
	AdmissionMax *int  `json:"admission_max,omitempty"`
	// EngineResizes reports the control loop's cumulative budget
	// resizes (response only).
	EngineResizes uint64 `json:"engine_resizes"`
}

// enginesView snapshots the node's engine/autoscale state, the
// admission clamp included.
func (s *server) enginesView() adminEnginesView {
	compute, comm := s.p.EngineCounts()
	auto := s.p.AutoscaleOn()
	admMin, admMax := s.adm.Clamp()
	return adminEnginesView{
		Compute: &compute, Comm: &comm, Autoscale: &auto,
		AdmissionMin: &admMin, AdmissionMax: &admMax,
		EngineResizes: s.p.EngineResizes(),
	}
}

func (s *server) handleAdminEngines(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, s.enginesView())
	case http.MethodPut:
		var body adminEnginesView
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			jsonError(w, http.StatusBadRequest, "bad body: "+err.Error())
			return
		}
		// The autoscale toggle applies before any resize: a request
		// carrying both {"autoscale": false, "compute": N} means "take
		// manual control and set N" — resizing first would still clamp N
		// into the autoscale bounds.
		if body.Autoscale != nil {
			s.p.SetAutoscale(*body.Autoscale)
		}
		if body.Compute != nil || body.Comm != nil {
			compute, comm := s.p.EngineCounts()
			if body.Compute != nil {
				compute = *body.Compute
			}
			if body.Comm != nil {
				comm = *body.Comm
			}
			if compute < 1 || comm < 1 {
				jsonError(w, http.StatusBadRequest, "engine counts must be >= 1")
				return
			}
			s.p.SetEngineCounts(compute, comm)
		}
		if body.AdmissionMin != nil || body.AdmissionMax != nil {
			min, max := s.adm.Clamp()
			if body.AdmissionMin != nil {
				min = *body.AdmissionMin
			}
			if body.AdmissionMax != nil {
				max = *body.AdmissionMax
			}
			// The Reconfigurer setter journals the clamp, so it
			// survives a restart (docs/JOURNAL.md).
			s.p.SetAdmissionClamp(min, max)
		}
		writeJSON(w, s.enginesView())
	default:
		w.Header().Set("Allow", "GET, PUT")
		jsonError(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}

func (s *server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	resume := false
	if v := r.URL.Query().Get("resume"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad resume value (want 1/0/true/false): "+v)
			return
		}
		resume = b
	}
	if resume {
		s.p.Resume()
	} else {
		s.p.Drain()
	}
	writeJSON(w, map[string]bool{"draining": s.p.Draining()})
}

func (s *server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	// The tracker's view is a superset of the manager's: the same merge
	// plus the heartbeat/eviction gauges, including workers evicted for
	// missed heartbeats (reported, not silently dropped).
	if s.tracker != nil {
		writeJSONBuffered(w, s.tracker.AggregateStats())
		return
	}
	if s.cluster == nil {
		jsonError(w, http.StatusNotFound, "no cluster manager attached to this frontend")
		return
	}
	writeJSONBuffered(w, s.cluster.AggregateStats())
}
