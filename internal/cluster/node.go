// Package cluster models application-server nodes and the client-side
// load balancer of the paper's evaluation testbed.
//
// A Node is one application-server process hosting the eBid application:
// an event-driven multi-worker queue on the simulation kernel. Requests
// occupy a worker for a calibrated service time; requests that hit a
// deadlocked or looping component occupy their worker until a microreboot
// kills them or their execution lease (TTL) expires — reproducing the
// resource-exhaustion dynamics of the paper's fault studies.
//
// The LoadBalancer implements the paper's failover discipline — session
// affinity for established sessions, redirection away from a draining
// node — behind a pluggable RoutingPolicy (static round-robin,
// queue-aware least-loaded, shedding admission control). Drain state is
// owned by the control plane's FleetController, which reacts to recovery
// signals on the bus; nothing flips the balancer directly anymore. Like
// the nodes, the balancer runs on the simulation kernel's one thread and
// takes no locks; the policies are concurrency-safe because the reverse
// proxy's router (package fleet) calls them from many goroutines.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/sim"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// Errors surfaced to clients.
var (
	// ErrConnectionRefused models the transport error seen while the
	// node's process is down.
	ErrConnectionRefused = errors.New("cluster: connection refused")
	// ErrConnectionReset models in-flight requests cut by a process
	// restart.
	ErrConnectionReset = errors.New("cluster: connection reset")
	// ErrRequestTimeout models a request whose execution lease expired.
	ErrRequestTimeout = errors.New("cluster: request timed out")
	// ErrServiceUnavailable is the HTTP 503 surfaced when a request hits
	// a recovering component and cannot be transparently retried.
	ErrServiceUnavailable = errors.New("cluster: 503 service unavailable")
)

// NodeConfig parameterizes a node.
type NodeConfig struct {
	// Name identifies the node in diagnostics.
	Name string
	// Workers is the request-thread pool size (default 4).
	Workers int
	// RequestTTL is the execution lease on a request (default 60 s):
	// stuck requests are purged when it expires.
	RequestTTL time.Duration
	// Retry503 enables transparent call-level retry: idempotent requests
	// that hit a recovering component are retried after the advertised
	// Retry-After interval instead of failing (Section 6.2).
	Retry503 bool
	// RetryAfter overrides the advertised retry interval
	// (DefaultRetryAfter when zero).
	RetryAfter time.Duration
	// MicrorebootEnabled models the µRB-capable server (adds the ~1 ms
	// interceptor overhead of Table 5). Defaults to true.
	MicrorebootDisabled bool
	// CongestionScale, when positive, degrades service times under
	// queueing pressure: effective service = base × (1 + depth/scale).
	// This models the GC and cache thrash of an overloaded JVM with no
	// admission control — the regime behind the paper's Figure 4, where
	// commercial application servers "do not do admission control when
	// overloaded" and response times collapse.
	CongestionScale int
	// Dataset cardinalities are taken from the deployed database.
	Dataset ebid.DatasetConfig
	// Seed offsets the node's service-time stream (nodes share the
	// kernel RNG, so this is only used for distinguishability).
	Seed int64
}

func (c *NodeConfig) fill() {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.RequestTTL == 0 {
		c.RequestTTL = 60 * time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = DefaultRetryAfter
	}
}

// maxRetries bounds transparent retries per request.
const maxRetries = 3

// pending tracks one request inside the node.
type pending struct {
	req     *workload.Request
	call    *core.Call
	retries int
	// hung marks a request parked on a deadlocked/looping component.
	hung bool
	// ttlTimer purges the request when its lease expires.
	ttlTimer *sim.Timer
	done     bool
	// admitted is the node's admission sequence number for the request's
	// current service, so resets walk in-flight requests in a fixed order.
	admitted uint64
}

// Node is one application-server process.
type Node struct {
	Name string

	kernel *sim.Kernel
	cfg    NodeConfig

	app   *ebid.App
	fastS *session.FastS // non-nil when session state is node-local
	store session.Store

	queue   []*pending
	busy    int
	down    bool
	serving map[*core.Call]*pending
	// admissions counts requests handed to a worker (stamps
	// pending.admitted).
	admissions uint64

	// recovering tracks components currently mid-µRB (for diagnostics).
	recovering map[string]bool

	// stats
	completed, failed, retried, purged int64
}

// NewNode builds a node hosting a freshly deployed eBid instance over the
// given database and session store.
func NewNode(k *sim.Kernel, d *db.DB, store session.Store, cfg NodeConfig) (*Node, error) {
	cfg.fill()
	app, err := ebid.New(d, store, k.Now)
	if err != nil {
		return nil, err
	}
	n := &Node{
		Name:       cfg.Name,
		kernel:     k,
		cfg:        cfg,
		app:        app,
		store:      store,
		serving:    map[*core.Call]*pending{},
		recovering: map[string]bool{},
	}
	if fs, ok := store.(*session.FastS); ok {
		n.fastS = fs
	}
	return n, nil
}

// App exposes the node's application (fault injection and recovery attach
// through it).
func (n *Node) App() *ebid.App { return n.app }

// Server exposes the node's application server.
func (n *Node) Server() *core.Server { return n.app.Server }

// Store exposes the node's session store (fault injectors and recovery
// managers must target the store the node actually uses).
func (n *Node) Store() session.Store { return n.store }

// Down reports whether the node's process is currently down.
func (n *Node) Down() bool { return n.down }

// Recovering reports whether any component (or the process) is mid-reboot.
func (n *Node) Recovering() bool {
	return n.down || len(n.recovering) > 0
}

// Stats reports completed/failed/retried/purged counters.
func (n *Node) Stats() (completed, failed, retried, purged int64) {
	return n.completed, n.failed, n.retried, n.purged
}

// Submit implements workload.Frontend.
func (n *Node) Submit(req *workload.Request) {
	if n.down {
		// Connection refused: fast transport-level failure.
		n.kernel.Schedule(time.Millisecond, func() {
			n.finishErr(req, ErrConnectionRefused)
		})
		return
	}
	p := &pending{req: req}
	n.queue = append(n.queue, p)
	n.pump()
}

// pump starts queued requests while workers are free.
func (n *Node) pump() {
	for n.busy < n.cfg.Workers && len(n.queue) > 0 {
		p := n.queue[0]
		n.queue = n.queue[1:]
		n.start(p)
	}
}

// serviceTime draws the calibrated per-request service time.
func (n *Node) serviceTime(op, sessionID string) time.Duration {
	d := n.kernel.Normal(ebid.BaseServiceMean, ebid.BaseServiceStddev)
	if !n.cfg.MicrorebootDisabled {
		d += ebid.MicrorebootOverhead
	}
	if info, ok := ebid.Info(op); ok && (info.NeedsSession || op == ebid.Authenticate || op == ebid.RegisterNewUser || op == ebid.OpLogout) {
		// Off-node stores (SSM and the SSM brick cluster) pay the
		// marshalling + network cost on every session access — plus the
		// fail-stutter penalty when the session's read is served by a
		// degraded brick replica.
		if n.store.SurvivesProcessRestart() {
			d += ebid.SSMAccessCost
			if pen, ok := n.store.(session.ReadPenalized); ok {
				d += pen.ReadPenalty(sessionID)
			}
		}
	}
	return d
}

// start executes one request: business logic runs immediately; the
// response is delivered after the modeled service time.
func (n *Node) start(p *pending) {
	n.busy++
	call := &core.Call{
		Op:        p.req.Op,
		SessionID: p.req.SessionID,
		Args:      p.req.Args,
		TTL:       n.cfg.RequestTTL,
	}
	p.call = call
	p.req.Call = call
	n.admissions++
	p.admitted = n.admissions
	n.serving[call] = p

	// The node runs on the discrete-event kernel, so the invocation
	// completes synchronously; hang parking stays off and ErrHang is
	// surfaced for virtual-time parking below. The request context still
	// threads through the invocation pipeline (interceptors, lease
	// bookkeeping) like a real front end's would.
	ctx := p.req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := n.app.Execute(ctx, call)

	if errors.Is(err, core.ErrHang) {
		// Deadlock or infinite loop: the shepherding thread is stuck.
		// The worker stays occupied until a µRB kills the call or the
		// execution lease expires.
		p.hung = true
		p.ttlTimer = n.kernel.Schedule(n.cfg.RequestTTL, func() {
			if p.done {
				return
			}
			n.purged++
			n.completeNow(p, workload.Response{Err: ErrRequestTimeout})
		})
		return
	}

	var ra *core.RetryAfterError
	if errors.As(err, &ra) {
		info, _ := ebid.Info(p.req.Op)
		if n.cfg.Retry503 && info.Idempotent && p.retries < maxRetries {
			// HTTP/1.1 503 + Retry-After: the servlet container replies
			// Retry-After and the request is transparently reissued.
			p.retries++
			n.retried++
			n.release(p)
			wait := n.cfg.RetryAfter
			if ra.After > 0 && ra.After < wait {
				wait = ra.After
			}
			n.kernel.Schedule(wait, func() {
				if n.down {
					n.finishErr(p.req, ErrConnectionRefused)
					return
				}
				n.queue = append(n.queue, p)
				n.pump()
			})
			return
		}
		err = fmt.Errorf("%w: %v", ErrServiceUnavailable, err)
	}

	svc := n.serviceTime(p.req.Op, p.req.SessionID)
	if n.cfg.CongestionScale > 0 && len(n.queue) > 0 {
		// Degradation is capped at 3x so a collapsed node can still
		// drain its queue once the surge ends.
		factor := 1 + float64(len(n.queue))/float64(n.cfg.CongestionScale)
		if factor > 3 {
			factor = 3
		}
		svc = time.Duration(float64(svc) * factor)
	}
	n.kernel.Schedule(svc, func() {
		if p.done {
			return
		}
		n.completeNow(p, workload.Response{Body: string(body), Err: err, Retried: p.retries})
	})
}

// release frees the worker without completing the request.
func (n *Node) release(p *pending) {
	if p.call != nil {
		delete(n.serving, p.call)
	}
	n.busy--
	n.pump()
}

// completeNow finalizes a request and frees its worker.
func (n *Node) completeNow(p *pending, resp workload.Response) {
	if p.done {
		return
	}
	p.done = true
	if p.ttlTimer != nil {
		p.ttlTimer.Stop()
	}
	n.release(p)
	n.finish(p.req, resp)
}

func (n *Node) finish(req *workload.Request, resp workload.Response) {
	if resp.Err != nil {
		n.failed++
	} else {
		n.completed++
	}
	req.Complete(resp)
}

func (n *Node) finishErr(req *workload.Request, err error) {
	n.finish(req, workload.Response{Err: err})
}

// failKilled fails the in-service requests whose shepherds a reboot
// destroyed, plus hung requests parked inside any rebooted component
// (their shepherding threads are killed by the µRB even though the
// component had already returned control to the platform).
func (n *Node) failKilled(rb *core.Reboot) {
	for _, call := range rb.KilledCalls {
		root := call.Root()
		if p, ok := n.serving[root]; ok && !p.done {
			n.completeNow(p, workload.Response{Err: workload.KilledError()})
		}
	}
	members := map[string]bool{}
	for _, m := range rb.Members {
		members[m] = true
	}
	for _, p := range n.servingSnapshot() {
		if p.done || !p.hung || p.call == nil {
			continue
		}
		for _, comp := range p.call.Path {
			if members[comp] {
				n.completeNow(p, workload.Response{Err: workload.KilledError()})
				break
			}
		}
	}
}

// Microreboot performs a microreboot of the named components on the
// simulation timeline: crash now, reinitialization completes after the
// modeled recovery time. It returns the reboot descriptor.
func (n *Node) Microreboot(names ...string) (*core.Reboot, error) {
	rb, err := n.Server().BeginMicroreboot(names...)
	if err != nil {
		return nil, err
	}
	n.failKilled(rb)
	for _, m := range rb.Members {
		n.recovering[m] = true
	}
	n.kernel.Schedule(rb.Duration(), func() {
		if err := n.Server().CompleteMicroreboot(rb); err != nil {
			panic(fmt.Sprintf("cluster: complete µRB on %s: %v", n.Name, err))
		}
		for _, m := range rb.Members {
			delete(n.recovering, m)
		}
		n.pump()
	})
	return rb, nil
}

// MicrorebootWithDelay binds the recovery sentinels immediately, lets
// in-flight requests drain for the grace delay, then performs the µRB
// (the Section 6.2 experiment that further reduces failed requests).
func (n *Node) MicrorebootWithDelay(delay time.Duration, names ...string) error {
	if _, err := n.Server().BindSentinels(names...); err != nil {
		return err
	}
	n.kernel.Schedule(delay, func() {
		if _, err := n.Microreboot(names...); err != nil {
			panic(fmt.Sprintf("cluster: delayed µRB on %s: %v", n.Name, err))
		}
	})
	return nil
}

// RebootScope reboots at WAR, application, process, or node scope. For
// process and node scopes, the whole server goes down: every in-flight
// and queued request fails, node-local session state (FastS) is lost, and
// arriving requests get connection-refused until reinitialization
// finishes.
func (n *Node) RebootScope(scope core.Scope) (*core.Reboot, error) {
	rb, err := n.Server().BeginScopedReboot(scope, "eBid")
	if err != nil {
		return nil, err
	}
	n.failKilled(rb)
	for _, m := range rb.Members {
		n.recovering[m] = true
	}
	if scope >= core.ScopeProcess {
		n.down = true
		// The dying process resets every connection.
		for _, p := range append([]*pending(nil), n.queue...) {
			n.completeNow(p, workload.Response{Err: ErrConnectionReset})
		}
		n.queue = nil
		for _, p := range n.servingSnapshot() {
			n.completeNow(p, workload.Response{Err: ErrConnectionReset})
		}
		if n.fastS != nil {
			n.fastS.LoseAll()
		}
	}
	n.kernel.Schedule(rb.Duration(), func() {
		if err := n.Server().CompleteMicroreboot(rb); err != nil {
			panic(fmt.Sprintf("cluster: complete reboot on %s: %v", n.Name, err))
		}
		for _, m := range rb.Members {
			delete(n.recovering, m)
		}
		if scope >= core.ScopeProcess {
			n.down = false
		}
		n.pump()
	})
	return rb, nil
}

// servingSnapshot returns the requests in service in admission order:
// whatever a reset does to them (fail them, fire their completions) must
// not depend on map iteration order, or the simulation stops being
// reproducible.
func (n *Node) servingSnapshot() []*pending {
	out := make([]*pending, 0, len(n.serving))
	for _, p := range n.serving {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].admitted < out[j].admitted })
	return out
}

// QueueDepth reports the number of requests waiting for a worker.
func (n *Node) QueueDepth() int { return len(n.queue) }

// Busy reports the number of occupied workers.
func (n *Node) Busy() int { return n.busy }

// Workers reports the size of the request-thread pool.
func (n *Node) Workers() int { return n.cfg.Workers }
