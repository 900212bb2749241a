// Command ebid-proxy runs a real multi-process eBid fleet: it spawns N
// ebid-server child processes, supervises them (crash → respawn with
// backoff, crash loops escalate), and fronts them as a reverse-proxy
// load balancer reusing the in-process cluster routing policies over
// live health/load polls. Node-scope recovery here is literal — a
// reboot is SIGKILL + re-exec of an OS process, and the WAL brings the
// next incarnation back with everything that was committed.
//
// It serves on httpfront.Server, ebid-server's keep-alive loop. A request's
// context there never ends: a client that hangs up does not cut its
// backend exchange, which the exchange deadline and the backend bound.
//
// Usage:
//
//	ebid-proxy [-addr :8080] [-server-bin path] [-backends N] [-base-port P] [-policy round-robin|least-loaded|shed] [-poll-interval D] [-rejuvenate-every D] [-wal-dir dir] [-server-flags "..."]
//
// The shed policy refuses new logins with 503 + Retry-After once every
// backend's queue is deeper than cluster.DefaultShedWatermark (8).
//
// Try it (with ebid-server on PATH or -server-bin):
//
//	ebid-proxy -addr :8080 -backends 3 -policy shed
//	curl localhost:8080/ebid/Authenticate?user=3
//	curl localhost:8080/admin/proxy/status
//	curl -X POST 'localhost:8080/admin/proxy/kill?backend=node1'   # chaos: SIGKILL; watch it respawn
//	curl -X POST 'localhost:8080/admin/proxy/reboot?backend=node2' # drain, wait for in-flight, SIGKILL, respawn
//	curl -X POST 'localhost:8080/admin/proxy/reboot?backend=node2&hard=1' # SIGKILL + respawn at once
//	curl -X POST 'localhost:8080/admin/proxy/drain?backend=node0'  # exclude from new sessions
//
// A control plane ticks every 100 ms alongside: its fleet probe samples
// each backend through the router, and with -rejuvenate-every the fleet
// controller runs rolling drain→reboot→restore passes over the real
// processes. Inspect it at /admin/controlplane/status.
//
// Every stop is a crash. SIGTERM or SIGINT stops the control plane and the
// router, SIGKILLs every backend and exits 0; the backends' WALs hold
// everything they acknowledged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/ebid"
	"repro/internal/fleet"
	"repro/internal/httpfront"
)

// tickInterval is the control plane's cadence.
const tickInterval = 100 * time.Millisecond

func main() {
	addr := flag.String("addr", ":8080", "proxy listen address")
	serverBin := flag.String("server-bin", "", "path to the ebid-server binary (default: look next to this binary, then PATH)")
	backends := flag.Int("backends", 3, "number of ebid-server processes to spawn")
	basePort := flag.Int("base-port", 8081, "first backend port; backend i listens on base-port+i")
	policyName := flag.String("policy", "least-loaded", "routing policy: round-robin, least-loaded or shed")
	pollInterval := flag.Duration("poll-interval", 250*time.Millisecond, "backend health/load poll cadence")
	rejuvenateEvery := flag.Duration("rejuvenate-every", 0,
		"rolling drain→reboot→restore of one backend this often (0 disables)")
	walDir := flag.String("wal-dir", "", "directory for per-backend WAL files (default: a temp dir; survives respawns, not proxy restarts)")
	serverFlags := flag.String("server-flags", "", "extra flags passed to every ebid-server child (space-separated)")
	flag.Parse()

	bin, err := findServerBin(*serverBin)
	if err != nil {
		log.Fatalf("ebid-proxy: %v", err)
	}
	dir := *walDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "ebid-fleet-")
		if err != nil {
			log.Fatalf("ebid-proxy: wal dir: %v", err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("ebid-proxy: wal dir: %v", err)
	}

	var policy cluster.RoutingPolicy
	switch *policyName {
	case "round-robin":
		policy = cluster.NewRoundRobin()
	case "least-loaded":
		policy = cluster.LeastLoadedPolicy{}
	case "shed":
		policy = &cluster.SheddingPolicy{Inner: cluster.LeastLoadedPolicy{}}
	default:
		log.Fatalf("ebid-proxy: unknown policy %q", *policyName)
	}

	// The router exists before the children do: it hears each one come up
	// from the supervisor, not from its next poll.
	extra := strings.Fields(*serverFlags)
	fleetBackends := make([]*fleet.Backend, *backends)
	specs := make([]fleet.ChildSpec, *backends)
	for i := range specs {
		name := fmt.Sprintf("node%d", i)
		port := *basePort + i
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		args := append([]string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-node", name,
			"-wal", filepath.Join(dir, name+".wal"),
		}, extra...)
		specs[i] = fleet.ChildSpec{Name: name, Path: bin, Args: args, ReadyURL: url + "/healthz"}
		fleetBackends[i] = &fleet.Backend{Name: name, URL: url}
	}
	router := fleet.NewRouter(policy, fleetBackends, *pollInterval)
	sup := fleet.New(supervisorEvents(router))
	for _, spec := range specs {
		if err := sup.Add(spec); err != nil {
			sup.Stop()
			log.Fatalf("ebid-proxy: %v", err)
		}
	}
	router.Start()

	start := time.Now()
	plane := controlplane.New(controlplane.Config{
		Clock: func() time.Duration { return time.Since(start) },
		Fleet: router,
	})
	fc := controlplane.NewFleetController(
		&fleet.Actuator{Router: router, Sup: sup},
		controlplane.FleetConfig{RejuvenateEvery: *rejuvenateEvery},
	)
	plane.Use(fc)
	tick := time.NewTicker(tickInterval) // stopped before the fleet is
	go func() {
		for range tick.C {
			plane.Tick()
		}
	}()
	if *rejuvenateEvery > 0 {
		log.Printf("rejuvenation: rolling reboot of one backend every %v", *rejuvenateEvery)
	}

	srv := &httpfront.Server{Handler: newHandler(router, sup, plane, fc, *backends)}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		sup.Stop()
		log.Fatalf("ebid-proxy: %v", err)
	}
	go func() {
		err := srv.Serve(l) // returns only when the listener fails
		sup.Stop()
		log.Fatalf("ebid-proxy: %v", err)
	}()
	log.Printf("ebid-proxy: %d × %s behind %s (policy %s, WALs in %s)", *backends, bin, *addr, policy.Name(), dir)
	log.Printf("ebid-proxy: %v: killing the fleet", <-sigCh)
	tick.Stop()
	router.Stop()
	sup.Stop()
	log.Printf("ebid-proxy: fleet stopped")
}

// supervisorEvents logs the supervisor's lifecycle events and passes each
// to the router, which marks a backend up when it is ready and down when
// it exits.
func supervisorEvents(router *fleet.Router) func(fleet.Event) {
	return func(e fleet.Event) {
		switch e.Kind {
		case fleet.EventCrashLoop:
			log.Printf("supervisor: %s is CRASH-LOOPING (%d crashes in window) — escalate beyond process restarts", e.Child, e.Crashes)
		case fleet.EventRespawn:
			log.Printf("supervisor: respawning %s in %v", e.Child, e.Backoff)
		default:
			log.Printf("supervisor: %s %s (pid %d, gen %d)", e.Child, e.Kind, e.Pid, e.Gen)
		}
		router.Observe(e)
	}
}

// newHandler is everything the proxy serves: the router for /ebid/, the
// admin surface and pprof. A known eBid operation skips the ServeMux match
// (three allocations), as in Front.Handler. backends is the fleet size
// /admin/proxy/ready reports.
func newHandler(router *fleet.Router, sup *fleet.Supervisor, plane *controlplane.Plane, fc *controlplane.FleetController, backends int) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/ebid/", router)
	mux.HandleFunc("/admin/proxy/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"router":     router.Status(),
			"supervisor": sup.Status(),
		})
	})
	mux.HandleFunc("/admin/proxy/ready", func(w http.ResponseWriter, r *http.Request) {
		if !router.AllHealthy() {
			http.Error(w, "fleet not fully healthy", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, map[string]any{"ready": true, "backends": backends})
	})
	mux.HandleFunc("/admin/proxy/drain", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("backend")
		drain := r.URL.Query().Get("off") == ""
		if !router.SetDrain(name, drain) {
			http.Error(w, "unknown backend "+name, http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"backend": name, "draining": drain})
	})
	mux.HandleFunc("/admin/proxy/reboot", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("backend")
		drained := r.URL.Query().Get("hard") == ""
		if drained {
			// Send the backend nothing more and wait for what it has, so
			// the kill cuts no request of ours; then restore its drain.
			wasDraining, ok := router.Quiesce(name)
			if !ok {
				http.Error(w, "unknown backend "+name, http.StatusNotFound)
				return
			}
			defer router.SetDrain(name, wasDraining)
		}
		down, err := sup.Restart(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"backend": name, "drained": drained, "downtime_ms": down.Milliseconds()})
	})
	mux.HandleFunc("/admin/proxy/kill", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("backend")
		if err := sup.Kill(name); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"backend": name, "killed": true})
	})
	mux.HandleFunc("/admin/proxy/rejuvenate", func(w http.ResponseWriter, r *http.Request) {
		fc.RequestRejuvenation()
		writeJSON(w, map[string]any{"requested": true})
	})
	mux.HandleFunc("/admin/controlplane/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, plane.Status())
	})
	httpfront.MountPprof(mux)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if op, ok := strings.CutPrefix(r.URL.Path, "/ebid/"); ok && r.URL.RawPath == "" {
			if _, known := ebid.Info(op); known {
				router.ServeHTTP(w, r)
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// findServerBin resolves the ebid-server binary: explicit flag, next to
// this executable, then PATH.
func findServerBin(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("server binary %s: %w", explicit, err)
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "ebid-server")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("ebid-server"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("ebid-server binary not found: build it (go build ./cmd/ebid-server) and pass -server-bin")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
