// Package httpfront serves a deployed eBid application over real HTTP,
// the way the paper's prototype served it from JBoss's embedded web
// server. End-user operations map to URLs; sessions ride on cookies; a
// request that reaches a component while it is being microrebooted, or
// that a microreboot kills, yields HTTP 503 with a Retry-After header
// (Section 6.2); and the microreboot method is exposed over HTTP for
// remote invocation by a recovery manager, as the paper's prototype
// allowed µRBs "programmatically from within the server, or remotely,
// over HTTP". A microreboot over HTTP is synchronous and lasts as long
// as its crash and reinit work; the Table 3 cost model is an input to
// the simulator only.
//
// Every request is executed under its http.Request context: the front
// binds the execution lease (TTL) as a context deadline, and a
// microreboot that kills the request's shepherd cancels the context, so
// a wedged handler unblocks the moment recovery starts.
//
// Front.Handler() is the one handler, whatever serves it. cmd/ebid-server
// serves it on Server, this package's own HTTP/1.1 keep-alive loop, which
// parses eBid's request heads in its read buffer into a request it reuses,
// hands every other head to http.ReadRequest, and gives each request
// context.Background: there, a request's context ends with its lease or a
// microreboot kill, never because the client disconnected. A handler run
// by Server must not keep the request, its URL or its Header after it
// returns. The benchmark's traced replay mounts the same handler on
// net/http. The handler sends a known operation's path straight to the
// operation, which decodes its arguments from the raw query, and routes
// everything else through a ServeMux. An operation's page reaches the
// wire one way: the application renders it into the request's pooled
// core.Call, serveOp adds the newline in that same buffer and writes it
// once, and the server running the handler frames it by its length.
package httpfront

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ebid"
)

// DefaultRequestTTL is the execution lease granted to each HTTP request;
// a stuck request observes context cancellation when it expires.
const DefaultRequestTTL = time.Minute

// Front is the HTTP front end for one application server.
type Front struct {
	App *ebid.App
	// RequestTTL overrides the execution lease on incoming requests
	// (DefaultRequestTTL when zero).
	RequestTTL time.Duration
	// Plane, when set, receives every failed request as a failure report
	// and serves its operator status at /admin/controlplane/status.
	Plane *controlplane.Plane
	// ShedWatermark, when positive, enables admission control: a request
	// that would start a session (no cookie yet) is answered 503 +
	// Retry-After while more than ShedWatermark requests are in flight.
	// Established sessions are never shed.
	ShedWatermark int
	// Sampler, when set, replays a sampled fraction of idempotent
	// operations against a known-good shadow instance (the paper's
	// comparison detector on live traffic).
	Sampler *detect.Sampler
	// Node overrides how this server identifies itself in fleet-status
	// and health surfaces (NodeName when empty). A supervised fleet
	// member is told its name by the supervisor that spawned it.
	Node  string
	start time.Time

	inflight atomic.Int64
	shedded  atomic.Int64
}

// NodeName is the default identity in fleet-status surfaces.
const NodeName = "http0"

// nodeName is the configured identity, or the single-node default.
func (f *Front) nodeName() string {
	if f.Node != "" {
		return f.Node
	}
	return NodeName
}

// FleetStats implements controlplane.FleetProbe for the single-node
// live server: in-flight requests stand in for busy workers so the
// plane's node-load signals carry real backpressure.
func (f *Front) FleetStats() []controlplane.NodeStat {
	return []controlplane.NodeStat{{
		Node:    f.nodeName(),
		Busy:    int(f.inflight.Load()),
		Workers: f.ShedWatermark,
	}}
}

// InFlight reports the requests currently executing.
func (f *Front) InFlight() int64 { return f.inflight.Load() }

// Shed reports how many requests admission control rejected.
func (f *Front) Shed() int64 { return f.shedded.Load() }

// New builds a front end for the given application. The server is put in
// hang-parking mode: a request wedged by a deadlock or infinite loop
// blocks on its context until a microreboot kills it or its lease
// expires, as a real servlet thread would.
func New(app *ebid.App) *Front {
	app.Server.SetHangParking(true)
	return &Front{App: app, start: time.Now()}
}

// Handler returns the HTTP handler: /ebid/<Operation> for end-user
// operations, /healthz, /admin/microreboot, /admin/components,
// /admin/controlplane/status, /admin/fleet/status and /debug/pprof/.
//
// A request for /ebid/<Op> whose Op is a known operation, and whose path
// has no escaped form of its own (URL.RawPath is empty), goes straight to
// the operation: such a path is already clean, so the mux could only
// route it there. Every other request goes through the mux, with its
// redirects of unclean paths and its 404s.
func (f *Front) Handler() http.Handler {
	mux := f.mux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if op, ok := strings.CutPrefix(r.URL.Path, "/ebid/"); ok && r.URL.RawPath == "" {
			if _, known := ebid.Info(op); known {
				f.serveOp(w, r, op)
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// mux routes every path the front serves.
func (f *Front) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ebid/", func(w http.ResponseWriter, r *http.Request) {
		op := strings.TrimPrefix(r.URL.Path, "/ebid/")
		if _, ok := ebid.Info(op); !ok {
			http.Error(w, "unknown operation "+op, http.StatusNotFound)
			return
		}
		f.serveOp(w, r, op)
	})
	mux.HandleFunc("/healthz", f.serveHealthz)
	mux.HandleFunc("/admin/microreboot", f.serveMicroreboot)
	mux.HandleFunc("/admin/components", f.serveComponents)
	mux.HandleFunc("/admin/controlplane/status", f.serveControlPlane)
	mux.HandleFunc("/admin/fleet/status", f.serveFleet)
	MountPprof(mux)
	return mux
}

// MountPprof serves the runtime's profiles (CPU, heap, mutex, goroutine,
// ...) under /debug/pprof/ on an admin mux, for
// go tool pprof http://<addr>/debug/pprof/profile against a live server,
// and samples 1 in 100 lock-contention events so that the mutex profile
// has something in it.
func MountPprof(mux *http.ServeMux) {
	runtime.SetMutexProfileFraction(100)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveHealthz handles GET /healthz — the readiness/liveness probe a
// supervisor polls. The listener only opens after the dataset is loaded
// and the application deployed, so answering at all means ready; the
// body carries the identity a fleet supervisor matches children by.
func (f *Front) serveHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"ready":     true,
		"node":      f.nodeName(),
		"pid":       os.Getpid(),
		"uptime_ms": time.Since(f.start).Milliseconds(),
	})
}

// serveFleet handles GET /admin/fleet/status: the front's own admission
// counters, the comparison sampler's, and — when a fleet controller runs
// on the plane — its per-node view and rolling-reboot log.
func (f *Front) serveFleet(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"node":           f.nodeName(),
		"in_flight":      f.inflight.Load(),
		"shed":           f.shedded.Load(),
		"shed_watermark": f.ShedWatermark,
	}
	if f.Sampler != nil {
		seen, checked, flagged := f.Sampler.Stats()
		out["comparison"] = map[string]int64{
			"eligible": seen, "checked": checked, "discrepancies": flagged,
		}
	}
	if f.Plane != nil {
		if st, ok := f.Plane.ControllerStatus("fleet"); ok {
			out["controller"] = st
		}
	}
	writeJSON(w, out)
}

// serveControlPlane handles GET /admin/controlplane/status: the plane's
// signal counters and each controller's snapshot.
func (f *Front) serveControlPlane(w http.ResponseWriter, r *http.Request) {
	if f.Plane == nil {
		http.Error(w, "no control plane is running", http.StatusNotFound)
		return
	}
	st := f.Plane.Status()
	writeJSON(w, map[string]any{
		"now":         st.Now,
		"ticks":       st.Ticks,
		"signals":     st.Signals,
		"controllers": st.Controllers,
	})
}

// SessionCookie names the cookie a session id rides on.
const SessionCookie = "EBIDSESSION"

// SessionID returns the value of the first EBIDSESSION cookie in a
// request's headers ("" when there is none), without allocating: the
// value is a substring of the header line. The front end and the fleet
// router both read the cookie through this one scanner, so they cannot
// disagree about which session a request belongs to.
func SessionID(h http.Header) string {
	for _, line := range h["Cookie"] {
		for line != "" {
			var pair string
			pair, line, _ = strings.Cut(line, ";")
			v, ok := strings.CutPrefix(strings.TrimSpace(pair), SessionCookie+"=")
			if !ok {
				continue
			}
			if len(v) > 1 && v[0] == '"' && v[len(v)-1] == '"' {
				v = v[1 : len(v)-1]
			}
			return v
		}
	}
	return ""
}

// sessionID extracts (or assigns) the session cookie. Fresh IDs come from
// crypto/rand so concurrent first requests can never collide.
func (f *Front) sessionID(w http.ResponseWriter, r *http.Request) string {
	if id := SessionID(r.Header); id != "" {
		return id
	}
	var buf [16]byte
	rand.Read(buf[:]) // never fails (aborts the program instead) since Go 1.24
	id := "http-" + hex.EncodeToString(buf[:])
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: id, Path: "/"})
	return id
}

// serveOp runs the known operation op, the request being
// /ebid/<op>?arg=value..., in the application.
func (f *Front) serveOp(w http.ResponseWriter, r *http.Request, op string) {
	cur := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	if f.ShedWatermark > 0 && cur > int64(f.ShedWatermark) {
		// Admission control: past the watermark, requests that would
		// start a session are turned away at the door with a retry hint
		// instead of joining a queue that can only collapse (the paper's
		// point about overloaded servers without admission control).
		// Established sessions — anything already carrying a cookie —
		// are always served.
		if SessionID(r.Header) == "" {
			f.shedded.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(cluster.RetryAfterSeconds(cluster.DefaultRetryAfter)))
			http.Error(w, "overloaded: new sessions are being shed, retry shortly",
				http.StatusServiceUnavailable)
			return
		}
	}
	// Decode query args onto the typed codec. Keys it does not carry and
	// values that fail to parse are dropped: no operation reads them.
	args := &ebid.OpArgs{}
	args.SetQuery(r.URL.RawQuery)
	ttl := f.RequestTTL
	if ttl <= 0 {
		ttl = DefaultRequestTTL
	}
	// A pooled root call: its Path and Body keep their capacity from one
	// request to the next, so the Via hops and the page append without
	// allocating. Nothing keeps the call past the write (the comparison
	// detector replays on a call of its own), and Release refuses a call a
	// microreboot killed.
	call := core.NewCall(op, f.sessionID(w, r), args, ttl)
	defer call.Release()
	// The request context is the root of the call's shepherd: lease expiry
	// and µRB kills cancel it. Under Server it is context.Background, so a
	// client that disconnects does not.
	body, err := f.App.Execute(r.Context(), call)
	f.Sampler.Observe(call, body, err)
	if err != nil {
		if f.Plane != nil {
			f.Plane.ReportFailure(op, failureKind(err))
		}
		f.writeOpError(w, err)
		return
	}
	// The page gets its newline in the call's own buffer and goes out in
	// one write. Framing is the server's: Server frames every response by
	// its length, and net/http does for a body this small.
	call.Body = append(body, '\n')
	w.Header()["Content-Type"] = contentTypeHTML
	_, _ = w.Write(call.Body) // a failed write means the client left; nothing to report it to
}

var contentTypeHTML = []string{"text/html; charset=utf-8"}

// failureKind classifies an invocation failure for the control plane's
// failure signals, mirroring the categories of writeOpError.
func failureKind(err error) string {
	var ra *core.RetryAfterError
	switch {
	case errors.As(err, &ra):
		return "recovering"
	case errors.Is(err, core.ErrKilled):
		return "killed"
	case errors.Is(err, core.ErrLeaseExpired) || errors.Is(err, context.DeadlineExceeded):
		return "lease-expired"
	case errors.Is(err, core.ErrHang):
		return "hang"
	case errors.Is(err, ebid.ErrNotLoggedIn):
		return "session-lapsed"
	case errors.Is(err, ebid.ErrNoItemSelected):
		return "client-state"
	default:
		return "http-error"
	}
}

// writeOpError maps invocation failures to HTTP statuses.
func (f *Front) writeOpError(w http.ResponseWriter, err error) {
	var ra *core.RetryAfterError
	switch {
	case errors.As(err, &ra):
		// The paper's transparent-retry machinery: idempotent requests
		// may simply be reissued after this interval.
		w.Header().Set("Retry-After", strconv.Itoa(cluster.RetryAfterSeconds(ra.After)))
		http.Error(w, "component recovering: "+ra.Component, http.StatusServiceUnavailable)
	case errors.Is(err, core.ErrKilled):
		// The shepherd was killed by a microreboot: the component is
		// recovering right now, so the client should retry shortly.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "request killed by recovery: "+err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, core.ErrLeaseExpired) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "execution lease expired: "+err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, core.ErrHang):
		http.Error(w, "request wedged (deadlock/loop injected)", http.StatusGatewayTimeout)
	case errors.Is(err, ebid.ErrNotLoggedIn):
		// Crash-only semantics: a lapsed or unknown session (lease
		// expiry, a process restart that ate non-SSM state) is a normal
		// client-recoverable event, not a server error — 401 tells the
		// client to log in again, and fleet routers unpin the session.
		http.Error(w, "session lapsed: "+err.Error(), http.StatusUnauthorized)
	case errors.Is(err, ebid.ErrNoItemSelected):
		// A commit with nothing to commit: the session's state conflicts
		// with the request, and no component is at fault.
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveMicroreboot handles POST /admin/microreboot?component=Name — the
// remotely invocable microreboot method added to the server. The µRB is
// synchronous: the reply is sent once every member has been crashed and
// reinitialized, and duration_ms is the measured wall time of that work.
func (f *Front) serveMicroreboot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	comp := r.URL.Query().Get("component")
	if comp == "" {
		http.Error(w, "component parameter required", http.StatusBadRequest)
		return
	}
	began := time.Now()
	rb, err := f.App.Server.Microreboot(comp)
	took := time.Since(began)
	switch {
	case errors.Is(err, core.ErrNotBound):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"members":      rb.Members,
		"duration_ms":  float64(took) / float64(time.Millisecond),
		"freed_bytes":  rb.FreedBytes,
		"aborted_txs":  rb.AbortedTxs,
		"killed_calls": len(rb.KilledCalls),
	})
}

// serveComponents lists deployed components with their states. Outcome
// counters come from the invocation-stats interceptor on the server.
func (f *Front) serveComponents(w http.ResponseWriter, r *http.Request) {
	type comp struct {
		Name      string   `json:"name"`
		Kind      string   `json:"kind"`
		State     string   `json:"state"`
		Group     []string `json:"recovery_group"`
		Served    uint64   `json:"served"`
		Failed    uint64   `json:"failed"`
		Rebooted  uint64   `json:"rebooted"`
		MeanLatMs float64  `json:"mean_latency_ms"`
	}
	var out []comp
	for _, name := range f.App.Server.Components() {
		c, err := f.App.Server.Container(name)
		if err != nil {
			continue
		}
		g, _ := f.App.Server.RecoveryGroup(name)
		st := f.App.Stats.Component(name)
		out = append(out, comp{
			Name: name, Kind: c.Kind().String(), State: c.State().String(),
			Group: g, Served: st.Served, Failed: st.Failed, Rebooted: c.Rebooted(),
			MeanLatMs: float64(st.MeanLatency().Microseconds()) / 1000,
		})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
