// Package controlplane unifies the system's self-management loops —
// failure diagnosis/recovery, brick heartbeat monitoring, and fleet
// drain/rejuvenation — into one observe–decide–act control plane.
//
// The observe half is a signal bus: client monitors publish failure
// reports, recovery managers publish node recovery lifecycles, the
// comparison detector publishes sampled discrepancies, and the plane's
// own probes publish brick heartbeat loss and per-node load samples
// (queue depth, busy workers). The decide/act half is a set of
// controllers that subscribe to the bus: the recovery manager
// (recovery.Manager implements Controller) diagnoses failures and climbs
// its recovery ladder, and a FleetController drives the load balancer's
// drain/failover state and orchestrates rolling node rejuvenation.
// Components stop calling each other directly; they meet on the bus.
// The package imports no other package of this repository: controllers
// depend on it, never the reverse.
//
// The plane is driven the same way the rest of this codebase is: a host
// calls Tick periodically (a simulation-kernel event in experiments, a
// goroutine ticker in the live server) and every decision happens inside
// a tick or a publish, under one lock, so controllers need no locking of
// their own.
package controlplane

import (
	"sync"
	"time"
)

// Clock supplies the plane's notion of time: virtual (sim.Kernel.Now) in
// experiments, time-since-start in the live server.
type Clock func() time.Duration

// SignalKind enumerates the observation types on the bus.
type SignalKind int

// Signal kinds.
const (
	// SignalFailure is one end-user operation failure seen by a client
	// monitor (the paper's UDP failure reports).
	SignalFailure SignalKind = iota
	// SignalBrickDead is one brick heartbeat-loss observation.
	SignalBrickDead
	// SignalNodeLoad is one node's load/health sample from the fleet
	// probe (queue depth, busy workers, outcome counters).
	SignalNodeLoad
	// SignalNodeRecovery is a recovery manager announcing that a node is
	// entering (Recovering true) or leaving (false) recovery. The fleet
	// controller turns these into load-balancer drain/restore actions.
	SignalNodeRecovery
	// SignalDiscrepancy is one comparison-detector mismatch: a sampled
	// live response differed from the known-good instance's.
	SignalDiscrepancy
)

// signalKinds is the number of distinct kinds (bus counter array size).
const signalKinds = 5

// String names the kind for status surfaces.
func (k SignalKind) String() string {
	switch k {
	case SignalFailure:
		return "failure"
	case SignalBrickDead:
		return "brick-dead"
	case SignalNodeLoad:
		return "node-load"
	case SignalNodeRecovery:
		return "node-recovery"
	case SignalDiscrepancy:
		return "discrepancy"
	default:
		return "unknown"
	}
}

// Signal is one observation on the bus. Kind says which fields are
// meaningful.
type Signal struct {
	Kind SignalKind
	At   time.Duration

	// SignalFailure: the failed end-user operation and failure type.
	Op          string
	FailureKind string

	// SignalBrickDead: the brick whose heartbeat is missing.
	Brick string

	// SignalNodeLoad / SignalNodeRecovery: the node concerned.
	Node string

	// SignalNodeLoad: the node's full load sample.
	Load NodeStat

	// SignalNodeRecovery: entering (true) or leaving (false) recovery.
	Recovering bool

	// SignalDiscrepancy: what the comparison detector saw (Op carries
	// the operation).
	Detail string
}

// NodeStat is one application-server node's load/health sample as
// published by the fleet probe (SignalNodeLoad). Queue depth and busy
// workers are the backpressure signals queue-aware routing policies and
// the fleet controller act on; the cumulative outcome counters let
// controllers derive in-flight failure rates from sample deltas.
type NodeStat struct {
	Node       string `json:"node"`
	Queue      int    `json:"queue"`
	Busy       int    `json:"busy"`
	Workers    int    `json:"workers"`
	Down       bool   `json:"down"`
	Recovering bool   `json:"recovering"`
	Draining   bool   `json:"draining"`
	Completed  int64  `json:"completed"`
	Failed     int64  `json:"failed"`
}

// FleetProbe is the per-node view the plane samples every tick;
// *cluster.LoadBalancer implements it.
type FleetProbe interface {
	FleetStats() []NodeStat
}

// Bus fans observations out to subscribers synchronously, in
// subscription order. It keeps per-kind counts for status surfaces.
// The Plane serializes all publishes under its lock.
type Bus struct {
	subs   []func(Signal)
	counts [signalKinds]int64
}

// Subscribe registers a consumer for every signal.
func (b *Bus) Subscribe(fn func(Signal)) {
	b.subs = append(b.subs, fn)
}

// Publish delivers one signal to every subscriber.
func (b *Bus) Publish(s Signal) {
	if int(s.Kind) >= 0 && int(s.Kind) < len(b.counts) {
		b.counts[s.Kind]++
	}
	for _, fn := range b.subs {
		fn(s)
	}
}

// Counts reports how many signals of each kind have been published.
func (b *Bus) Counts() map[string]int64 {
	out := make(map[string]int64, len(b.counts))
	for k, n := range b.counts {
		out[SignalKind(k).String()] = n
	}
	return out
}

// Controller is one decide/act loop on the plane. OnSignal observes (it
// must not block); Tick decides under the plane lock and may return the
// act half as a closure, which the plane runs after releasing its lock —
// so a slow actuator (a brick restart, a node reboot) never stalls the
// foreground emitters serializing on that lock. Status is a JSON-able
// snapshot for operators.
type Controller interface {
	Name() string
	OnSignal(Signal)
	Tick(now time.Duration) (act func())
	Status() any
}

// ShardCluster is the view of the SSM brick cluster the plane's probe
// samples; *session.SSMCluster implements it.
type ShardCluster interface {
	DeadBricks() []string
}

// probeInterval is how often the cluster probe samples brick heartbeats:
// each dead brick is reported once per interval, however fast the plane
// ticks. Ticks between probes still run the controllers.
const probeInterval = time.Second

// Config parameterizes a Plane.
type Config struct {
	// Clock supplies time; required.
	Clock Clock
	// Cluster, when set, is probed every probeInterval: missing brick
	// heartbeats become SignalBrickDead.
	Cluster ShardCluster
	// Fleet, when set, is probed every Tick: each node's load sample
	// becomes one SignalNodeLoad.
	Fleet FleetProbe
}

// Plane owns the bus, the probes, and the controllers.
type Plane struct {
	mu      sync.Mutex
	clock   Clock
	bus     *Bus
	cluster ShardCluster
	fleet   FleetProbe

	controllers []Controller
	ticks       int64
	lastProbe   time.Duration
	probed      bool
}

// New builds a control plane.
func New(cfg Config) *Plane {
	if cfg.Clock == nil {
		panic("controlplane: Config.Clock is required")
	}
	return &Plane{clock: cfg.Clock, bus: &Bus{}, cluster: cfg.Cluster, fleet: cfg.Fleet}
}

// Use attaches a controller: it is subscribed to the bus and ticked on
// every Plane.Tick.
func (p *Plane) Use(c Controller) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.controllers = append(p.controllers, c)
	p.bus.Subscribe(c.OnSignal)
}

// Publish puts one raw signal on the bus (emitters usually go through
// the typed helpers below). The timestamp is stamped here.
func (p *Plane) Publish(s Signal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s.At = p.clock()
	p.bus.Publish(s)
}

// ReportFailure publishes one end-user operation failure — the client
// monitors' entry point onto the bus.
func (p *Plane) ReportFailure(op, kind string) {
	p.Publish(Signal{Kind: SignalFailure, Op: op, FailureKind: kind})
}

// ReportNodeRecovery publishes a node's recovery lifecycle edge — the
// recovery manager's entry point onto the bus (the fleet controller
// actuates the load balancer's drain from these; nobody calls the LB
// directly anymore).
func (p *Plane) ReportNodeRecovery(node string, recovering bool) {
	p.Publish(Signal{Kind: SignalNodeRecovery, Node: node, Recovering: recovering})
}

// ReportDiscrepancy publishes one comparison-detector mismatch.
func (p *Plane) ReportDiscrepancy(op, detail string) {
	p.Publish(Signal{Kind: SignalDiscrepancy, Op: op, Detail: detail})
}

// Tick runs one observe–decide–act round: the probes publish what they
// see (at most once per probeInterval), then every controller gets its
// decide step; the act closures the controllers return run last, after
// the plane lock is released. The probes also run before the lock is
// taken, so foreground emitters (every failed live HTTP request reports
// itself) only ever wait on controller bookkeeping, never on probes or
// actuators.
func (p *Plane) Tick() {
	now := p.clock()
	var probes []Signal
	if p.fleet != nil {
		for _, st := range p.fleet.FleetStats() {
			probes = append(probes, Signal{Kind: SignalNodeLoad, At: now, Node: st.Node, Load: st})
		}
	}
	if p.cluster != nil && p.probeDue(now) {
		for _, brick := range p.cluster.DeadBricks() {
			probes = append(probes, Signal{Kind: SignalBrickDead, At: now, Brick: brick})
		}
	}
	var acts []func()
	p.mu.Lock()
	p.ticks++
	for _, s := range probes {
		p.bus.Publish(s)
	}
	for _, c := range p.controllers {
		if act := c.Tick(now); act != nil {
			acts = append(acts, act)
		}
	}
	p.mu.Unlock()
	for _, act := range acts {
		act()
	}
}

// probeDue reports (and records) whether a cluster probe should run at
// now. The first tick always probes.
func (p *Plane) probeDue(now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.probed && now-p.lastProbe < probeInterval {
		return false
	}
	p.probed = true
	p.lastProbe = now
	return true
}

// Status is the operator view served by /admin/controlplane/status.
type Status struct {
	Now         time.Duration    `json:"now"`
	Ticks       int64            `json:"ticks"`
	Signals     map[string]int64 `json:"signals"`
	Controllers map[string]any   `json:"controllers"`
}

// Status snapshots the plane.
func (p *Plane) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		Now:         p.clock(),
		Ticks:       p.ticks,
		Signals:     p.bus.Counts(),
		Controllers: map[string]any{},
	}
	for _, c := range p.controllers {
		st.Controllers[c.Name()] = c.Status()
	}
	return st
}
