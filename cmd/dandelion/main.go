// Command dandelion runs one Dandelion worker node with its HTTP
// frontend (§5): clients register compute-function binaries and
// composition DAGs, then invoke compositions, all over HTTP.
//
// Example session (with the node on :8080):
//
//	dvmasm -builtin echo -o echo.dvm
//	curl -X POST --data-binary @echo.dvm -H 'X-Output-Sets: Copy' \
//	     localhost:8080/register/function/Echo
//	printf 'composition E(In) => Result { Echo(x = all In) => (Result = Copy); }' |
//	     curl -X POST --data-binary @- localhost:8080/register/composition
//	curl -X POST --data-binary 'hello' 'localhost:8080/invoke/E?input=In'
//	curl -X POST -H 'X-Tenant: alice' --data-binary 'hi' 'localhost:8080/invoke/E?input=In'
//	curl localhost:8080/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dandelion"
	"dandelion/internal/cluster"
	"dandelion/internal/faultinject"
	"dandelion/internal/frontend"
	"dandelion/internal/workloads"
)

// parseTenantWeights parses "alice=2,bob=1" into a weight map.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q (want tenant=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight in %q (want integer >= 1)", pair)
		}
		weights[name] = w
	}
	return weights, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "frontend listen address")
	computeEngines := flag.Int("compute-engines", 0, "initial compute engines (0 = default)")
	commEngines := flag.Int("comm-engines", 0, "initial communication engines (0 = default)")
	tenantWeights := flag.String("tenant-weights", "", "per-tenant DRR dispatch weights, e.g. 'alice=2,bob=1' (unlisted tenants get 1)")
	byteFairness := flag.Bool("byte-fairness", false, "charge DRR dispatch deficits in payload bytes instead of task counts, so large-payload tenants cannot starve interactive ones")
	autoscale := flag.Bool("autoscale", false, "grow/shrink the compute-engine pool, and with it the core budget, with load")
	autoscaleMax := flag.Int("autoscale-max", 0, "compute-pool ceiling under -autoscale (0 = 4x initial)")
	adminToken := flag.String("admin-token", "", "bearer token enabling the /admin control-plane routes (empty disables them)")
	journalDir := flag.String("journal", "", "directory for the durable invocation journal (created if missing); admin reconfiguration and keyed invocations are replayed from it on restart (empty disables journaling)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "per-request body cap on the invocation and registration routes; oversized requests get 413 (0 = 64 MiB default)")
	maxFrameBytes := flag.Int64("max-frame-bytes", 0, "per-record payload cap on the binary /invoke-batch stream; over-budget records get the distinct frame-too-large error (0 = wire default, clamped to -max-body-bytes)")
	workloadSpec := flag.String("workloads", "", "comma-separated built-in workload suites to register at startup: any of 'ssb,image,storage', or 'all' (see docs/WORKLOADS.md)")
	coordinator := flag.Bool("coordinator", false, "run as cluster coordinator: accept remote worker joins on /cluster/join and route invocations across the fleet")
	join := flag.String("join", "", "coordinator URL to join as a remote worker (self-registers, heartbeats, re-registers after coordinator restarts)")
	workerName := flag.String("name", "", "worker name presented to the coordinator under -join (default: the listen address)")
	advertise := flag.String("advertise", "", "URL the coordinator dials this worker back on under -join (default http://<addr>)")
	hbInterval := flag.Duration("heartbeat-interval", time.Second, "worker heartbeat period; the coordinator sweeps for missed beats on the same period")
	hbMisses := flag.Int("heartbeat-misses", 3, "missed heartbeats before the coordinator evicts a worker")
	faultPlan := flag.String("fault-plan", "", "deterministic fault-injection plan applied to inbound requests, e.g. 'seed=42;route=/invoke-batch,kind=error,rate=0.5,code=502;kind=latency,latency=20ms' (chaos testing; see docs/ROBUSTNESS.md)")
	flag.Parse()

	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		log.Fatal(err)
	}
	p, err := dandelion.New(dandelion.Options{
		ComputeEngines: *computeEngines,
		CommEngines:    *commEngines,
		TenantWeights:  weights,
		ByteFairness:   *byteFairness,
		Autoscale:      *autoscale,
		AutoscaleMax:   *autoscaleMax,
		JournalDir:     *journalDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Shutdown()

	if *workloadSpec != "" {
		suites, err := workloads.Register(p, *workloadSpec)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("dandelion workload suites registered: %s", strings.Join(suites, ", "))
	}

	cfg := frontend.Config{AdminToken: *adminToken, MaxBodyBytes: *maxBodyBytes, MaxFrameBytes: *maxFrameBytes}
	if *coordinator {
		// Coordinator mode: this frontend is the cluster ingress.
		// Workers join over /cluster/join, prove liveness over
		// /cluster/heartbeat, and invocation routes fan out across the
		// fleet, around workers whose breaker is open; the tracker
		// evicts workers that miss heartbeats. Every routed request
		// carries an idempotency key (the manager mints a prefix unique
		// per coordinator life), so wholesale chunk failures — worker
		// death, lost responses — are retried safely: the workers'
		// dedup tables absorb re-execution.
		tr := cluster.NewTracker(cluster.NewManager(), *hbInterval, *hbMisses, nil)
		tr.Start()
		defer tr.Stop()
		cfg.Tracker = tr
	}
	if *join != "" {
		name := *workerName
		if name == "" {
			name = *addr
		}
		self := *advertise
		if self == "" {
			self = "http://" + *addr
		}
		hb := &cluster.Heartbeater{
			Coordinator: *join,
			Name:        name,
			SelfURL:     self,
			Token:       *adminToken,
			Interval:    *hbInterval,
		}
		log.Printf("dandelion joining coordinator %s as %q (advertising %s, beat every %v)",
			*join, name, self, *hbInterval)
		go hb.Run(context.Background())
	}

	handler := http.Handler(frontend.NewWithConfig(p, cfg))
	if *faultPlan != "" {
		plan, err := faultinject.Parse(*faultPlan)
		if err != nil {
			log.Fatal(err)
		}
		handler = plan.Middleware(handler)
		log.Printf("dandelion FAULT INJECTION active: %s", *faultPlan)
	}

	log.Printf("dandelion worker node on http://%s (autoscale=%v, admin=%v, coordinator=%v, journal=%v)",
		*addr, *autoscale, *adminToken != "", *coordinator, *journalDir != "")
	log.Fatal(http.ListenAndServe(*addr, handler))
}
