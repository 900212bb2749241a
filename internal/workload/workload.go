// Package workload implements the paper's client emulator: human users
// modeled by a Markov chain over the 25 end-user operations of eBid, with
// independent exponentially distributed think times (mean 7 s, capped at
// 70 s, as in TPC-W) between successive "URL clicks". Transition
// probabilities are chosen so the steady-state operation mix reproduces
// Table 1, which in turn mimics the real workload of a major Internet
// auction site.
//
// The emulator also performs the action-weighted throughput accounting of
// Section 4: a session begins at login and ends at logout or abandonment;
// ops group into actions that succeed or fail atomically at commit
// points; any failed op retroactively fails its whole action.
package workload

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Request is one HTTP request submitted to a frontend (a node or a load
// balancer). Complete must be invoked exactly once with the outcome.
type Request struct {
	ClientID  int
	Op        string
	SessionID string
	Args      any
	Issued    time.Duration
	// Ctx is the request's root context, threaded down through
	// core.Server.Invoke; nil means context.Background().
	Ctx context.Context
	// Call is the in-application call object; frontends construct it so
	// microreboot kill notifications can be correlated.
	Call *core.Call
	// Complete delivers the outcome back to the emulator.
	Complete func(Response)
}

// Response is the outcome of a request.
type Response struct {
	Body string
	Err  error
	// Retried reports how many transparent 503-retries the frontend
	// performed before this outcome.
	Retried int
}

// OK reports whether the request succeeded.
func (r Response) OK() bool { return r.Err == nil }

// Frontend accepts requests (a single node, or a cluster load balancer).
type Frontend interface {
	Submit(req *Request)
}

const (
	// thinkCap caps each think-time draw.
	thinkCap = 70 * time.Second
	// maxActionLen closes pure-browsing actions after this many ops,
	// standing in for "the customized summary screen" at the end of a
	// browsing action.
	maxActionLen = 4
	// quickVisitP is the probability a session is a short
	// login-check-logout visit.
	quickVisitP = 0.2
)

// Config parameterizes the emulator.
type Config struct {
	// Clients is the concurrent emulated-user population.
	Clients int
	// ThinkMean is the mean think time (default 7 s); draws are capped
	// at thinkCap.
	ThinkMean time.Duration
	// Dataset cardinalities for argument synthesis.
	Users      int64
	Items      int64
	Categories int64
	Regions    int64
	// StartStagger spreads client start times uniformly over this window
	// (default: ThinkMean) so load ramps smoothly.
	StartStagger time.Duration
	// ClientIDOffset shifts this emulator's client ids so several
	// emulators can share one frontend (session ids derive from client
	// ids and must stay distinct).
	ClientIDOffset int
}

func (c *Config) fill() {
	if c.ThinkMean == 0 {
		c.ThinkMean = 7 * time.Second
	}
	if c.Users == 0 {
		c.Users = 250
	}
	if c.Items == 0 {
		c.Items = 3300
	}
	if c.Categories == 0 {
		c.Categories = 20
	}
	if c.Regions == 0 {
		c.Regions = 62
	}
	if c.StartStagger == 0 {
		c.StartStagger = c.ThinkMean
	}
}

// FailureListener receives op-level failures (the client-side failure
// detector of Section 4 plugs in here).
type FailureListener func(clientID int, op string, resp Response)

// Emulator drives Config.Clients emulated users against a Frontend on a
// simulation kernel.
type Emulator struct {
	kernel   *sim.Kernel
	frontend Frontend
	recorder *metrics.Recorder
	cfg      Config

	clients []*client

	onFailure FailureListener
	// stats
	issued   int64
	stopped  bool
	draining bool
}

// NewEmulator builds an emulator. recorder may be nil (no Taw accounting).
func NewEmulator(k *sim.Kernel, fe Frontend, rec *metrics.Recorder, cfg Config) *Emulator {
	cfg.fill()
	e := &Emulator{kernel: k, frontend: fe, recorder: rec, cfg: cfg}
	for i := 0; i < cfg.Clients; i++ {
		e.clients = append(e.clients, newClient(e, cfg.ClientIDOffset+i))
	}
	return e
}

// OnFailure installs the failure listener.
func (e *Emulator) OnFailure(l FailureListener) { e.onFailure = l }

// Start schedules all clients; their first ops are staggered.
func (e *Emulator) Start() {
	for _, c := range e.clients {
		c := c
		e.kernel.Schedule(e.kernel.Uniform(0, e.cfg.StartStagger), c.step)
	}
}

// Stop stops issuing new requests (in-flight ones still complete).
func (e *Emulator) Stop() { e.stopped = true }

// Drain retires the population gracefully: each client finishes its
// current session (through its logout, which deletes the stored session)
// and then goes home instead of starting another. Unlike Stop, a drained
// population leaves no abandoned sessions behind for the lease reaper.
func (e *Emulator) Drain() { e.draining = true }

// Issued reports the number of requests issued so far.
func (e *Emulator) Issued() int64 { return e.issued }

// FlushActions closes every client's open action as successful-so-far.
// Call at the end of an experiment so trailing ops are accounted.
func (e *Emulator) FlushActions() {
	for _, c := range e.clients {
		c.closeAction(false)
	}
}
