package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/ebid"
	"repro/internal/httpfront"
	"repro/internal/store/session"
)

// Backend is one ebid-server process as seen from the proxy. It
// implements cluster.Endpoint so the in-process routing policies route
// real processes: QueueDepth is the proxy-side in-flight count (requests
// this proxy has dispatched and not yet answered) and Busy is the
// backend's own in-flight gauge from its last /admin/fleet/status poll.
type Backend struct {
	Name string
	URL  string // e.g. http://127.0.0.1:8081

	inflight   atomic.Int64 // proxy-side dispatched, unanswered
	remoteBusy atomic.Int64 // backend-reported in_flight
	healthy    atomic.Bool
	draining   atomic.Bool
	completed  atomic.Int64
	failed     atomic.Int64

	// healthMu orders healthy's two sources, the supervisor's events
	// (Observe) and the poll. epoch counts the events: a poll's verdict is
	// applied only if none arrived while it was out. exitedGen is the last
	// incarnation seen to exit, so that its ready event, delivered late,
	// is ignored.
	healthMu  sync.Mutex
	epoch     uint64
	exitedGen int

	addr   string // host:port the forwarder dials, from URL
	poolMu sync.Mutex
	idle   []*backendConn // most recently used last
}

// QueueDepth implements cluster.Endpoint.
func (b *Backend) QueueDepth() int { return int(b.inflight.Load()) }

// Busy implements cluster.Endpoint.
func (b *Backend) Busy() int { return int(b.remoteBusy.Load()) }

// Healthy reports whether the backend is up, by the latest of its health
// poll and the supervisor's events.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Draining reports whether the backend is excluded from new sessions.
func (b *Backend) Draining() bool { return b.draining.Load() }

// BackendStatus is one backend's externally visible state on
// /admin/proxy/status.
type BackendStatus struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Draining  bool   `json:"draining"`
	InFlight  int64  `json:"in_flight"`
	Busy      int64  `json:"busy"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
}

// Router is the reverse-proxy load balancer: it forwards /ebid/*
// requests to backend processes, keeps session affinity on the
// EBIDSESSION cookie, spills established sessions away from dead or
// draining backends (transparent failover: a request is re-sent to a peer
// after a connection-level failure only if its operation is idempotent or
// the backend never received it), and answers policy shed decisions with
// 503 + Retry-After. It implements
// controlplane.FleetProbe so the control plane's fleet controller
// observes real processes through the same NodeStat samples it sees in
// simulation.
type Router struct {
	policy   cluster.RoutingPolicy
	backends []*Backend
	poll     *http.Client

	// The affinity table. A request of an established session takes only
	// the shared lock and stamps its pin; logins, logouts, spills and the
	// idle sweep take the exclusive one.
	mu        sync.RWMutex
	affinity  map[string]*pin
	now       func() time.Time // the clock pins are stamped with
	lastSweep time.Time        // poll loop only

	lostSessions atomic.Int64 // sessions with no live backend to fail over to
	spills       atomic.Int64 // established sessions re-pinned after a backend died
	shed         atomic.Int64
	retried      atomic.Int64 // transparent connection-level retries
	unknown      atomic.Int64 // non-idempotent requests lost with their backend: 502, not re-sent

	pollEvery time.Duration
	stop      chan struct{}
	stopOnce  sync.Once
}

// NewRouter builds a router over the given backends. pollEvery is the
// health/load poll interval (0 means 250ms).
func NewRouter(policy cluster.RoutingPolicy, backends []*Backend, pollEvery time.Duration) *Router {
	if pollEvery <= 0 {
		pollEvery = 250 * time.Millisecond
	}
	for _, b := range backends {
		if u, err := url.Parse(b.URL); err == nil {
			b.addr = u.Host // a URL that does not parse fails at the first dial
		}
	}
	return &Router{
		policy:    policy,
		backends:  backends,
		affinity:  map[string]*pin{},
		now:       time.Now,
		poll:      &http.Client{Timeout: 500 * time.Millisecond},
		pollEvery: pollEvery,
		stop:      make(chan struct{}),
	}
}

// Start launches the health/load poll loop. An initial synchronous
// sweep seeds health before the first request. The poll finds a process
// that is alive but wedged, and reads the busy gauge; that a process
// started or exited, Observe learns at once.
func (r *Router) Start() {
	r.pollOnce()
	go func() {
		tick := time.NewTicker(r.pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.pollOnce()
				r.sweepAffinity()
			}
		}
	}()
}

// Stop halts the poll loop and closes the idle backend connections.
func (r *Router) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	for _, b := range r.backends {
		b.dropIdle()
	}
}

// pollOnce refreshes every backend's health and load concurrently. One
// failed poll marks a backend unhealthy — for process fleets behind a
// local supervisor, a refused connection means the process is down, and
// optimism here turns into user-visible errors. A verdict is dropped if
// the supervisor reported on the backend while the poll was out: the
// event is newer.
func (r *Router) pollOnce() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			b.healthMu.Lock()
			epoch := b.epoch
			b.healthMu.Unlock()
			up := r.pollStatus(b)
			b.healthMu.Lock()
			defer b.healthMu.Unlock()
			switch {
			case b.epoch != epoch:
			case up:
				b.healthy.Store(true)
			default:
				b.markDown()
			}
		}(b)
	}
	wg.Wait()
}

// pollStatus asks b for its in-flight gauge and stores it. It reports
// whether b answered.
func (r *Router) pollStatus(b *Backend) bool {
	resp, err := r.poll.Get(b.URL + "/admin/fleet/status")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var st struct {
		InFlight int64 `json:"in_flight"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return false
	}
	b.remoteBusy.Store(st.InFlight)
	return true
}

// Observe takes the supervisor's word on a backend, passed on from the
// Supervisor's event callback. EventReady marks the backend healthy at
// once, without waiting for the next poll. EventExited marks it down,
// which also closes its idle connections: they lead to the incarnation
// that died, and a commit point sent on one would be answered 502. Other
// events, and events about no backend of r, are ignored.
func (r *Router) Observe(e Event) {
	if e.Kind != EventReady && e.Kind != EventExited {
		return
	}
	b := r.backend(e.Child)
	if b == nil {
		return
	}
	b.healthMu.Lock()
	defer b.healthMu.Unlock()
	if e.Kind == EventExited {
		b.exitedGen = max(b.exitedGen, e.Gen)
		b.markDown()
	} else if e.Gen > b.exitedGen {
		b.healthy.Store(true)
	}
	b.epoch++
}

// SetDrain implements half of controlplane.FleetActuator (see Actuator):
// a draining backend stops receiving new sessions; its established
// sessions spill to peers.
func (r *Router) SetDrain(node string, drain bool) bool {
	b := r.backend(node)
	if b != nil {
		b.draining.Store(drain)
	}
	return b != nil
}

// Quiesce readies the named backend for a kill. It drains the backend, so
// new and pinned sessions go to healthy peers if it has any, and waits
// until no request this router forwarded to it is still unanswered; the
// wait is bounded by exchangeTimeout, past which any such request has been
// answered anyway. The kill's EventExited (Observe) then closes the
// connections left idle. It returns the drain state the backend had
// before, for the caller to restore, and ok false for an unknown backend.
func (r *Router) Quiesce(node string) (wasDraining, ok bool) {
	b := r.backend(node)
	if b == nil {
		return false, false
	}
	wasDraining = b.draining.Swap(true)
	for deadline := time.Now().Add(exchangeTimeout); time.Now().Before(deadline); time.Sleep(quiescePoll) {
		if b.inflight.Load() == 0 {
			break
		}
	}
	return wasDraining, true
}

// quiescePoll is how often Quiesce looks at a backend's in-flight count.
const quiescePoll = 5 * time.Millisecond

// backend returns the named backend, or nil.
func (r *Router) backend(name string) *Backend {
	for _, b := range r.backends {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// FleetStats implements controlplane.FleetProbe over the polled state.
func (r *Router) FleetStats() []controlplane.NodeStat {
	out := make([]controlplane.NodeStat, 0, len(r.backends))
	for _, b := range r.backends {
		out = append(out, controlplane.NodeStat{
			Node:      b.Name,
			Queue:     b.QueueDepth(),
			Busy:      b.Busy(),
			Down:      !b.Healthy(),
			Draining:  b.Draining(),
			Completed: b.completed.Load(),
			Failed:    b.failed.Load(),
		})
	}
	return out
}

// Status is the /admin/proxy/status payload.
func (r *Router) Status() map[string]any {
	backends := make([]BackendStatus, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, BackendStatus{
			Name: b.Name, URL: b.URL,
			Healthy: b.Healthy(), Draining: b.Draining(),
			InFlight: b.inflight.Load(), Busy: b.remoteBusy.Load(),
			Completed: b.completed.Load(), Failed: b.failed.Load(),
		})
	}
	r.mu.RLock()
	pinned := len(r.affinity)
	r.mu.RUnlock()
	return map[string]any{
		"policy":          r.policy.Name(),
		"backends":        backends,
		"pinned_sessions": pinned,
		"lost_sessions":   r.lostSessions.Load(),
		"spilled":         r.spills.Load(),
		"shed":            r.shed.Load(),
		"retried":         r.retried.Load(),
		"unknown_outcome": r.unknown.Load(),
	}
}

// AllHealthy reports whether every backend is up — the /admin/proxy/ready
// gate.
func (r *Router) AllHealthy() bool {
	for _, b := range r.backends {
		if !b.Healthy() {
			return false
		}
	}
	return true
}

// routable appends the candidates for new-session routing to cands:
// healthy and not draining, falling back to all healthy (a draining fleet
// must still serve), then to everything (fail honestly somewhere).
func (r *Router) routable(cands []cluster.Endpoint) []cluster.Endpoint {
	for _, b := range r.backends {
		if b.Healthy() && !b.Draining() {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		for _, b := range r.backends {
			if b.Healthy() {
				cands = append(cands, b)
			}
		}
	}
	if len(cands) == 0 {
		for _, b := range r.backends {
			cands = append(cands, b)
		}
	}
	return cands
}

// opFromPath extracts the operation name from /ebid/<Op>.
func opFromPath(path string) string {
	if rest, ok := strings.CutPrefix(path, "/ebid/"); ok {
		return rest
	}
	return ""
}

// pin is one session's affinity: the backend that holds its state, and
// when a request last used it (Router.now, Unix ns).
type pin struct {
	b    *Backend
	used atomic.Int64
}

// pinned returns the backend sid is pinned to (nil when none), and
// counts the lookup as a use.
func (r *Router) pinned(sid string) *Backend {
	r.mu.RLock()
	p := r.affinity[sid]
	r.mu.RUnlock()
	if p == nil {
		return nil
	}
	p.used.Store(r.now().UnixNano())
	return p.b
}

func (r *Router) pin(sid string, b *Backend) {
	p := &pin{b: b}
	p.used.Store(r.now().UnixNano())
	sid = strings.Clone(sid) // a cookie value is a slice of a whole header line
	r.mu.Lock()
	r.affinity[sid] = p
	r.mu.Unlock()
}

func (r *Router) unpin(sid string) {
	r.mu.Lock()
	delete(r.affinity, sid)
	r.mu.Unlock()
}

// affinitySweepEvery spaces the idle sweeps: each walks the whole table
// under the exclusive lock.
const affinitySweepEvery = session.DefaultLeaseTTL / 8

// sweepAffinity forgets sessions idle for longer than the session lease.
// The backend has dropped such a session's state by then, so its next
// request is answered 401 wherever it lands; without the sweep a user who
// just stops clicking stays in the table for the life of the proxy.
func (r *Router) sweepAffinity() {
	now := r.now()
	if now.Sub(r.lastSweep) < affinitySweepEvery {
		return
	}
	r.lastSweep = now
	cutoff := now.Add(-session.DefaultLeaseTTL).UnixNano()
	r.mu.Lock()
	for sid, p := range r.affinity {
		if p.used.Load() < cutoff {
			delete(r.affinity, sid)
		}
	}
	r.mu.Unlock()
}

// candPool recycles candidate slices: a slice handed to a policy through
// its interface escapes, so pooling it keeps routing allocation-free.
var candPool = sync.Pool{New: func() any { return new([]cluster.Endpoint) }}

// pick chooses the backend for one request, applying affinity, spill
// and the routing policy. It may return a ShedError via err.
func (r *Router) pick(op, sid string) (*Backend, error) {
	pinned := r.pinned(sid)
	if pinned != nil && pinned.Healthy() && !pinned.Draining() {
		return pinned, nil
	}
	buf := candPool.Get().(*[]cluster.Endpoint)
	cands := r.routable((*buf)[:0])
	defer func() {
		*buf = cands[:0]
		candPool.Put(buf)
	}()
	if len(cands) == 0 {
		return nil, errors.New("fleet: no backends")
	}
	if pinned != nil {
		// Affinity target gone: spill the established session.
		if len(cands) == 1 && cands[0].(*Backend) == pinned {
			r.lostSessions.Add(1)
			r.unpin(sid)
			return nil, errors.New("fleet: no live backend for session")
		}
		next := r.policy.RouteSpill(cands).(*Backend)
		r.pin(sid, next)
		r.spills.Add(1)
		return next, nil
	}
	picked, err := r.policy.RouteNew(op, cands)
	if err != nil {
		return nil, err
	}
	b := picked.(*Backend)
	if sid != "" {
		// A cookie-carrying request with no pin (the client re-logged
		// in after a logout or lapse, so the backend re-uses the cookie
		// without a fresh Set-Cookie): pin where we route it, or its
		// follow-ups scatter across backends and lapse spuriously.
		r.pin(sid, b)
	}
	return b, nil
}

// ServeHTTP implements http.Handler for /ebid/* traffic.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.ContentLength != 0 {
		// Every eBid operation is a GET; a body would have to be replayed
		// on each retry, and nothing downstream reads one.
		http.Error(w, "fleet: request bodies are not forwarded", http.StatusBadRequest)
		return
	}
	op := opFromPath(req.URL.Path)
	sid := httpfront.SessionID(req.Header)

	var tried [3]*Backend
	for attempt := range tried {
		b, err := r.pick(op, sid)
		if err != nil {
			var shed *cluster.ShedError
			if errors.As(err, &shed) {
				r.shed.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(cluster.RetryAfterSeconds(shed.After)))
				http.Error(w, "fleet at capacity, retry later", http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if slices.Contains(tried[:attempt], b) {
			// The policy keeps picking a backend we already failed on;
			// mark and move on rather than hammering it.
			b.markDown()
			continue
		}
		tried[attempt] = b

		if r.forward(w, req, b, op, sid) {
			return
		}
		// A connection-level failure that forward found safe to re-send:
		// the backend is gone. Mark it down now (the poll loop will
		// confirm); pick() handles the spill on the retry.
		b.markDown()
		b.failed.Add(1)
		r.retried.Add(1)
	}
	http.Error(w, "no backend reachable", http.StatusBadGateway)
}

// forward proxies one request to b over one of its pooled connections,
// on the caller's goroutine. It returns true when the request is over —
// a response of any status was relayed, or an error answered — and false
// on a connection-level failure (refused, reset, truncated or unparsable
// head) before anything reached the client that is safe to retry on a
// peer, and grounds to mark the backend down without waiting for the next
// poll.
//
// A request may reach a second backend or a second connection only if
// its operation is idempotent, or if the dial failed and the backend never
// saw it: a commit point (CommitBid, RegisterNewUser, ...) that failed
// after it was sent may have committed before its backend died, so it is
// answered 502 "outcome unknown" and counted, never re-sent.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, b *Backend, op, sid string) bool {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	info, _ := ebid.Info(op)
	sent := false // the backend may have read the request
	c, err := b.getConn()
	if err == nil {
		sent = true
		var answered bool
		answered, err = c.exchange(req, b.addr)
		if err != nil && c.reused && !answered && info.Idempotent {
			// An idle connection the backend closed since its last exchange
			// (every restart leaves the pool full of them) says nothing
			// about the backend now: once more on a fresh connection.
			sent = false
			if c, err = b.dial(); err == nil {
				sent = true
				_, err = c.exchange(req, b.addr)
			}
		}
	}
	switch {
	case err == nil:
	case errors.Is(err, os.ErrDeadlineExceeded):
		http.Error(w, "fleet: "+b.Name+" did not answer in time", http.StatusBadGateway)
		return true
	case sent && !info.Idempotent:
		r.unknown.Add(1)
		b.markDown()
		b.failed.Add(1)
		http.Error(w, "fleet: "+b.Name+" failed after "+op+" was sent to it: outcome unknown, not re-sent",
			http.StatusBadGateway)
		return true
	default:
		return false
	}

	// Learn affinity from the session cookie the backend assigns, and
	// retire it on logout or a session lapse (the 401 tells the client
	// to log in again — it will get a fresh pin then).
	status := c.head.status
	if c.head.session != "" {
		r.pin(c.head.session, b)
	}
	if sid != "" && (status == http.StatusUnauthorized || (op == ebid.OpLogout && status == http.StatusOK)) {
		r.unpin(sid)
	}
	if c.relay(w, req.Method) {
		b.putConn(c)
	} else {
		c.nc.Close()
	}
	if status >= 500 {
		b.failed.Add(1)
	} else {
		b.completed.Add(1)
	}
	return true
}

// Actuator glues the Router and Supervisor into the control plane's
// FleetActuator: drains act on routing, reboots act on processes. With
// this in place controlplane.FleetController's rolling
// drain→reboot→restore cycle operates a real OS-process fleet.
type Actuator struct {
	Router *Router
	Sup    *Supervisor
}

// SetDrain implements controlplane.FleetActuator.
func (a *Actuator) SetDrain(node string, drain bool) bool {
	return a.Router.SetDrain(node, drain)
}

// RebootNode implements controlplane.FleetActuator: a hard node reboot —
// SIGKILL and wait for the supervisor to bring the next incarnation up
// ready, reporting the real downtime.
func (a *Actuator) RebootNode(node string) (time.Duration, error) {
	return a.Sup.Restart(node)
}
