package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/workload"
)

// Endpoint is the load view a routing policy sees of one routable
// target. In-process simulation nodes (*Node) and the reverse proxy's
// remote backends (fleet.Backend, whose gauges come from polling each
// process's /admin/fleet/status) both implement it, so the same policy
// implementations route simulated fleets and real OS-process fleets.
type Endpoint interface {
	// QueueDepth is how many requests are waiting for a worker (for a
	// remote backend: queued at the proxy).
	QueueDepth() int
	// Busy is how many requests are executing right now.
	Busy() int
}

// RoutingPolicy decides which endpoint serves a request the affinity map
// does not already pin. It sees only the request's operation and the
// candidates. The reverse proxy's router calls it from many goroutines at
// once, so implementations must be concurrency-safe. Candidate slices are
// the healthy endpoints, or every endpoint when none is healthy (the
// fallback path: the request must reach some node to fail honestly); they
// are only valid for the duration of the call.
type RoutingPolicy interface {
	Name() string
	// RouteNew picks the endpoint for a request of operation op with no
	// session affinity. A non-nil error rejects the request instead
	// (admission control); no endpoint is charged.
	RouteNew(op string, cands []Endpoint) (Endpoint, error)
	// RouteSpill picks the failover target for an established session
	// redirected away from its draining or down affinity endpoint.
	// Established sessions are never shed, so spill cannot fail.
	RouteSpill(cands []Endpoint) Endpoint
}

// RoundRobinPolicy is the paper's static discipline: even distribution
// of new sessions, uniform redirection of failover traffic. It is
// load-blind — the baseline the queue-aware policies are measured
// against.
type RoundRobinPolicy struct {
	rrNew   atomic.Uint64
	rrSpill atomic.Uint64
}

// NewRoundRobin builds the static baseline policy.
func NewRoundRobin() *RoundRobinPolicy { return &RoundRobinPolicy{} }

// Name implements RoutingPolicy.
func (p *RoundRobinPolicy) Name() string { return "round-robin" }

// RouteNew implements RoutingPolicy.
func (p *RoundRobinPolicy) RouteNew(op string, cands []Endpoint) (Endpoint, error) {
	return cands[int((p.rrNew.Add(1)-1)%uint64(len(cands)))], nil
}

// RouteSpill implements RoutingPolicy.
func (p *RoundRobinPolicy) RouteSpill(cands []Endpoint) Endpoint {
	return cands[int((p.rrSpill.Add(1)-1)%uint64(len(cands)))]
}

// LeastLoadedPolicy routes to the candidate with the fewest requests in
// the building (queued + busy workers): routing driven by live
// backpressure instead of static position, so a degraded node receives
// only what it can actually drain. Ties fall to the earliest candidate
// for determinism.
type LeastLoadedPolicy struct{}

// Name implements RoutingPolicy.
func (LeastLoadedPolicy) Name() string { return "least-loaded" }

func leastLoaded(cands []Endpoint) Endpoint {
	best := cands[0]
	bestLoad := best.QueueDepth() + best.Busy()
	for _, n := range cands[1:] {
		if load := n.QueueDepth() + n.Busy(); load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// RouteNew implements RoutingPolicy.
func (LeastLoadedPolicy) RouteNew(op string, cands []Endpoint) (Endpoint, error) {
	return leastLoaded(cands), nil
}

// RouteSpill implements RoutingPolicy.
func (LeastLoadedPolicy) RouteSpill(cands []Endpoint) Endpoint {
	return leastLoaded(cands)
}

// DefaultShedWatermark is the per-node queue depth past which the
// shedding policy starts refusing new logins.
const DefaultShedWatermark = 8

// DefaultRetryAfter is the paper's Retry-After hint: the interval a
// shed or recovering request is told to wait before retrying.
const DefaultRetryAfter = 2 * time.Second

// SheddingPolicy is admission control at the balancer: when every
// candidate's queue sits past QueueWatermark, session-establishing
// requests are rejected with a Retry-After hint instead of joining
// queues that can only collapse — the admission control the paper notes
// commercial application servers lack when overloaded (the Figure 4
// regime). Established sessions and non-login traffic are never shed;
// they route through Inner.
type SheddingPolicy struct {
	// Inner picks the node for everything that is admitted.
	Inner RoutingPolicy
	// QueueWatermark is the per-node queue depth that counts as "past
	// capacity" (DefaultShedWatermark when zero).
	QueueWatermark int
	// RetryAfter is the interval advertised to shed clients
	// (DefaultRetryAfter when zero).
	RetryAfter time.Duration
}

// Name implements RoutingPolicy.
func (p *SheddingPolicy) Name() string { return "shed+" + p.Inner.Name() }

func (p *SheddingPolicy) watermark() int {
	if p.QueueWatermark <= 0 {
		return DefaultShedWatermark
	}
	return p.QueueWatermark
}

func (p *SheddingPolicy) retryAfter() time.Duration {
	if p.RetryAfter <= 0 {
		return DefaultRetryAfter
	}
	return p.RetryAfter
}

// IsLoginOp reports whether op establishes a session (the affinity-
// assigning set). Exported so the reverse proxy's router classifies
// requests the same way the in-process balancer does.
func IsLoginOp(op string) bool {
	return op == ebid.Authenticate || op == ebid.RegisterNewUser || op == ebid.OpHome
}

// RouteNew implements RoutingPolicy.
func (p *SheddingPolicy) RouteNew(op string, cands []Endpoint) (Endpoint, error) {
	if IsLoginOp(op) {
		past := 0
		for _, n := range cands {
			if n.QueueDepth() > p.watermark() {
				past++
			}
		}
		if past == len(cands) {
			return nil, &ShedError{After: p.retryAfter()}
		}
	}
	return p.Inner.RouteNew(op, cands)
}

// RouteSpill implements RoutingPolicy.
func (p *SheddingPolicy) RouteSpill(cands []Endpoint) Endpoint {
	return p.Inner.RouteSpill(cands)
}

// ShedError is the 503 + Retry-After admission control answers a new
// login with while every node is past the queue watermark.
type ShedError struct{ After time.Duration }

// Error implements error. The text carries the 503 marker so the
// client-side detector classifies it as an HTTP error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("%v: overloaded, retry after %v", ErrServiceUnavailable, e.After)
}

// Unwrap lets errors.Is(err, ErrServiceUnavailable) match.
func (e *ShedError) Unwrap() error { return ErrServiceUnavailable }

// RetryAfterSeconds renders a Retry-After hint for HTTP, whose
// granularity is the whole second: rounded up, and never below 1 (a 0
// would tell the client to retry at once, into the same overload).
func RetryAfterSeconds(d time.Duration) int {
	return max(1, int((d+time.Second-1)/time.Second))
}

// LoadBalancer is the client-side load balancer of Section 5.3, grown
// into a fleet-controlled router: new sessions are placed by a pluggable
// RoutingPolicy (static round-robin, queue-aware least-loaded, or
// shedding admission control), established sessions stick to their node,
// and a node marked draining — by the control plane's FleetController,
// on recovery signals or for a rolling reboot — has its traffic
// redirected to the good nodes until it is restored.
//
// A LoadBalancer belongs to the single-threaded simulation kernel, like
// the nodes whose gauges it reads: routing, drain flips and the control
// plane's probe all run on the kernel's thread, so it takes no locks.
// Candidates go into one reused buffer, so routing allocates nothing.
type LoadBalancer struct {
	nodes    []*Node
	byName   map[string]*Node
	affinity map[string]*Node
	// draining marks nodes the fleet controller asked us to drain.
	draining map[*Node]bool
	policy   RoutingPolicy
	// cands is the candidate buffer handed to the policy on each route.
	cands []Endpoint

	// Failover enables redirection; with it off, requests keep flowing
	// to the recovering node (the paper's pre-failover µRB scheme).
	Failover bool

	failedOver    int64
	shed          int64
	pruned        int64
	sessionsMoved map[string]bool
}

// NewLoadBalancer builds a balancer over the given nodes with the
// round-robin policy.
func NewLoadBalancer(nodes []*Node) *LoadBalancer {
	byName := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byName[n.Name] = n
	}
	return &LoadBalancer{
		nodes:         nodes,
		byName:        byName,
		affinity:      map[string]*Node{},
		draining:      map[*Node]bool{},
		policy:        NewRoundRobin(),
		cands:         make([]Endpoint, 0, len(nodes)),
		Failover:      true,
		sessionsMoved: map[string]bool{},
	}
}

// Nodes returns the balanced node set.
func (lb *LoadBalancer) Nodes() []*Node { return lb.nodes }

// SetPolicy installs a routing policy (round-robin when never called).
func (lb *LoadBalancer) SetPolicy(p RoutingPolicy) { lb.policy = p }

// SetDrain moves the named node into (true) or out of (false) the
// drained state. The control plane's FleetController is the caller —
// drain is a fleet-level decision, not something recovery code flips
// directly. Unknown nodes report false.
func (lb *LoadBalancer) SetDrain(node string, drain bool) bool {
	n, ok := lb.byName[node]
	if !ok {
		return false
	}
	if drain {
		lb.draining[n] = true
	} else {
		delete(lb.draining, n)
	}
	return true
}

// RebootNode performs a node-scope (process) reboot of the named node,
// returning the modeled recovery duration — the fleet controller's
// rolling-rejuvenation actuator.
func (lb *LoadBalancer) RebootNode(node string) (time.Duration, error) {
	n, ok := lb.byName[node]
	if !ok {
		return 0, fmt.Errorf("cluster: unknown node %q", node)
	}
	rb, err := n.RebootScope(core.ScopeProcess)
	if err != nil {
		return 0, err
	}
	return rb.Duration(), nil
}

// FleetStats implements controlplane.FleetProbe: one load/health sample
// per node for the plane's per-tick fleet probe.
func (lb *LoadBalancer) FleetStats() []controlplane.NodeStat {
	out := make([]controlplane.NodeStat, 0, len(lb.nodes))
	for _, n := range lb.nodes {
		completed, failed, _, _ := n.Stats()
		out = append(out, controlplane.NodeStat{
			Node:       n.Name,
			Queue:      n.QueueDepth(),
			Busy:       n.Busy(),
			Workers:    n.Workers(),
			Down:       n.Down(),
			Recovering: n.Recovering(),
			Draining:   lb.draining[n],
			Completed:  completed,
			Failed:     failed,
		})
	}
	return out
}

// SessionsFailedOver reports how many distinct sessions had at least one
// request redirected.
func (lb *LoadBalancer) SessionsFailedOver() int { return len(lb.sessionsMoved) }

// Shed reports how many requests admission control rejected.
func (lb *LoadBalancer) Shed() int64 { return lb.shed }

// healthy refills lb.cands with the nodes that are neither down nor
// draining.
func (lb *LoadBalancer) healthy() []Endpoint {
	lb.cands = lb.cands[:0]
	for _, n := range lb.nodes {
		if !n.Down() && !lb.draining[n] {
			lb.cands = append(lb.cands, n)
		}
	}
	return lb.cands
}

// Submit implements workload.Frontend.
func (lb *LoadBalancer) Submit(req *workload.Request) {
	target, err := lb.Route(req)
	if err != nil {
		// Admission control turned the request away at the door: no node
		// is charged, and the client gets the Retry-After answer.
		req.Complete(workload.Response{Err: err})
		return
	}
	lb.armPrune(req)
	target.Submit(req)
}

// Route picks the node that will serve req and performs the balancer's
// bookkeeping (affinity assignment, failover accounting) without
// submitting it. A non-nil error means admission control rejected the
// request.
func (lb *LoadBalancer) Route(req *workload.Request) (*Node, error) {
	// Established sessions stick to their node.
	if n, ok := lb.affinity[req.SessionID]; ok {
		if !lb.Failover || !(lb.draining[n] || n.Down()) {
			return n, nil
		}
		// Redirect to the good nodes; the policy picks which. The session
		// stays pinned to its home node and returns there once restored.
		good := lb.healthy()
		if len(good) == 0 {
			return n, nil
		}
		lb.failedOver++
		lb.sessionsMoved[req.SessionID] = true
		return lb.policy.RouteSpill(good).(*Node), nil
	}
	// New sessions (the request establishing them) go wherever the
	// policy says; if no node is healthy, any node takes the failure.
	if len(lb.healthy()) == 0 {
		for _, n := range lb.nodes {
			lb.cands = append(lb.cands, n)
		}
	}
	picked, err := lb.policy.RouteNew(req.Op, lb.cands)
	if err != nil {
		lb.shed++
		return nil, err
	}
	n := picked.(*Node)
	if IsLoginOp(req.Op) {
		lb.affinity[req.SessionID] = n
	}
	return n, nil
}

// armPrune hooks the request's completion so affinity entries die with
// their sessions. Without this the map grows by one entry per session
// for the life of the process.
func (lb *LoadBalancer) armPrune(req *workload.Request) {
	op, sid, inner := req.Op, req.SessionID, req.Complete
	req.Complete = func(resp workload.Response) {
		lb.noteCompletion(op, sid, resp)
		if inner != nil {
			inner(resp)
		}
	}
}

// noteCompletion retires affinity entries that can never route again: a
// completed Logout deleted the stored session, and a "not logged in"
// failure means the session lapsed (its lease expired or its store
// died). The next request with that id is, correctly, a new session.
func (lb *LoadBalancer) noteCompletion(op, sid string, resp workload.Response) {
	gone := (op == ebid.OpLogout && resp.Err == nil) ||
		errors.Is(resp.Err, ebid.ErrNotLoggedIn)
	if !gone {
		return
	}
	if _, ok := lb.affinity[sid]; ok {
		delete(lb.affinity, sid)
		lb.pruned++
	}
}

// ResetFailoverStats clears the failover counters (between experiment
// phases).
func (lb *LoadBalancer) ResetFailoverStats() {
	lb.failedOver = 0
	lb.sessionsMoved = map[string]bool{}
}
