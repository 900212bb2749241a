package controlplane

import (
	"sync"
	"sync/atomic"
	"time"
)

// FleetActuator is the load-balancer side the fleet controller drives;
// *cluster.LoadBalancer implements it.
type FleetActuator interface {
	// SetDrain moves the named node into (true) or out of (false) the
	// drained state: new sessions avoid it and, with failover on,
	// established sessions are redirected. Unknown nodes report false.
	SetDrain(node string, drain bool) bool
	// RebootNode performs a node-scope (process) reboot of the named
	// node, returning the modeled recovery duration.
	RebootNode(node string) (time.Duration, error)
}

// FleetConfig parameterizes the fleet controller.
type FleetConfig struct {
	// RejuvenateEvery, when positive, starts one rolling
	// drain→reboot→restore of the next node in rotation this often —
	// software rejuvenation as a control-plane decision rather than a
	// per-node service. Zero disables the schedule;
	// RequestRejuvenation still triggers single passes.
	RejuvenateEvery time.Duration
	// DrainTimeout bounds how long a draining node may hold the rolling
	// reboot while its in-flight requests finish (default 15 s).
	DrainTimeout time.Duration
}

func (c *FleetConfig) fill() {
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 15 * time.Second
	}
}

// rollState is where the rolling-reboot state machine stands.
type rollState int

const (
	rollIdle rollState = iota
	rollDraining
	rollRebooting
)

func (s rollState) String() string {
	switch s {
	case rollDraining:
		return "draining"
	case rollRebooting:
		return "rebooting"
	default:
		return "idle"
	}
}

// fleetNode is the controller's memory of one node.
type fleetNode struct {
	last NodeStat
	seen time.Duration
	// recovering tracks SignalNodeRecovery edges (a drain the recovery
	// manager asked for, as opposed to one the rolling reboot owns).
	recovering bool
}

// FleetReboot is one rolling-reboot action that reached the actuator.
type FleetReboot struct {
	Node     string        `json:"node"`
	At       time.Duration `json:"at"`
	Duration time.Duration `json:"duration"`
	Err      string        `json:"err,omitempty"`
}

// FleetController closes the node/LB loop on the plane: recovery
// managers publish "node recovering/recovered" and the controller
// drains/restores the balancer (the failover the paper's RM used to
// request from LB directly); node-load samples keep a live per-node
// view for status surfaces and the rolling rejuvenator, which cycles
// the fleet through drain → node-scope reboot → restore so no node
// accumulates decay while clients notice.
type FleetController struct {
	cfg FleetConfig
	act FleetActuator

	nodes map[string]*fleetNode
	order []string // rotation order = sample arrival order

	state      rollState
	victim     string
	drainFrom  time.Duration
	deadline   time.Duration
	next       int
	lastPass   time.Duration
	started    bool
	drains     int64
	restores   int64
	rejuvDone  int64
	requested  atomic.Int64
	recovering int // nodes currently in recovery-driven drain

	// Reboot bookkeeping is written by act closures outside the plane
	// lock (a live server's ticker goroutine) while Status reads under
	// it — hence its own mutex.
	rmu         sync.Mutex
	rebootArmed bool
	rebootDone  time.Duration
	rebootErr   string
	Reboots     []FleetReboot
}

// NewFleetController builds the controller driving the given actuator.
// act may be nil for an observe-only fleet view (single-node servers):
// load samples are tracked, but recovery signals and the rejuvenation
// schedule actuate nothing.
func NewFleetController(act FleetActuator, cfg FleetConfig) *FleetController {
	cfg.fill()
	return &FleetController{cfg: cfg, act: act, nodes: map[string]*fleetNode{}}
}

// Name implements Controller.
func (f *FleetController) Name() string { return "fleet" }

// RequestRejuvenation queues one rolling drain→reboot→restore pass,
// started at the next tick. Safe to call from any goroutine.
func (f *FleetController) RequestRejuvenation() { f.requested.Add(1) }

// Rejuvenations reports completed rolling-reboot passes.
func (f *FleetController) Rejuvenations() int64 { return atomic.LoadInt64(&f.rejuvDone) }

// OnSignal implements Controller. Node-load samples refresh the fleet
// view; recovery edges actuate the drain immediately (a map flip on the
// balancer — failover must not wait for the next tick).
func (f *FleetController) OnSignal(s Signal) {
	switch s.Kind {
	case SignalNodeLoad:
		n, ok := f.nodes[s.Node]
		if !ok {
			n = &fleetNode{}
			f.nodes[s.Node] = n
			f.order = append(f.order, s.Node)
		}
		n.last = s.Load
		n.seen = s.At
	case SignalNodeRecovery:
		n, ok := f.nodes[s.Node]
		if !ok {
			n = &fleetNode{}
			f.nodes[s.Node] = n
			f.order = append(f.order, s.Node)
		}
		if n.recovering == s.Recovering {
			return
		}
		n.recovering = s.Recovering
		if s.Recovering {
			f.recovering++
			f.drains++
		} else {
			f.recovering--
			f.restores++
		}
		// While a rolling pass owns the victim's drain, a recovery
		// lifecycle on that node must not undrain it mid-pass (the
		// reboot would fire on a node receiving traffic); the pass
		// restores it when it completes.
		if s.Node == f.victim && f.state != rollIdle && !s.Recovering {
			return
		}
		if f.act != nil {
			f.act.SetDrain(s.Node, s.Recovering)
		}
	}
}

// Tick implements Controller: advance the rolling-reboot state machine.
// Decisions happen here under the plane lock; the returned act closure
// performs the drain flip or the reboot after the lock is released.
func (f *FleetController) Tick(now time.Duration) func() {
	if !f.started {
		// Arm the schedule from the first tick, not from time zero, so a
		// plane started mid-experiment doesn't immediately owe a pass.
		f.started = true
		f.lastPass = now
	}
	if f.act == nil {
		return nil
	}
	switch f.state {
	case rollIdle:
		due := f.cfg.RejuvenateEvery > 0 && now-f.lastPass >= f.cfg.RejuvenateEvery
		if (f.requested.Load() > 0 || due) && len(f.order) > 0 && f.recovering == 0 {
			if f.requested.Load() > 0 {
				f.requested.Add(-1)
			}
			f.victim = f.order[f.next%len(f.order)]
			f.next++
			f.lastPass = now
			f.state = rollDraining
			f.drainFrom = now
			f.deadline = now + f.cfg.DrainTimeout
			f.drains++
			victim := f.victim
			return func() { f.act.SetDrain(victim, true) }
		}
	case rollDraining:
		n := f.nodes[f.victim]
		drained := n != nil && n.seen > f.drainFrom && n.last.Queue == 0 && n.last.Busy == 0
		if drained || now >= f.deadline {
			f.state = rollRebooting
			victim := f.victim
			return func() {
				d, err := f.act.RebootNode(victim)
				f.rmu.Lock()
				defer f.rmu.Unlock()
				f.rebootArmed = true
				f.rebootDone = now + d
				f.rebootErr = ""
				if err != nil {
					f.rebootErr = err.Error()
					f.rebootDone = now // restore immediately
				}
				f.Reboots = append(f.Reboots, FleetReboot{Node: victim, At: now, Duration: d, Err: f.rebootErr})
			}
		}
	case rollRebooting:
		f.rmu.Lock()
		done := f.rebootArmed && now >= f.rebootDone
		failed := f.rebootErr != ""
		if done {
			f.rebootArmed = false
		}
		f.rmu.Unlock()
		if done {
			f.state = rollIdle
			f.restores++
			// A reboot that never happened is not a rejuvenation; the
			// errored entry in the Reboots log tells the story.
			if !failed {
				atomic.AddInt64(&f.rejuvDone, 1)
			}
			victim := f.victim
			f.victim = ""
			if n := f.nodes[victim]; n != nil && n.recovering {
				// Recovery re-drained the victim during the reboot; its
				// recovered signal owns the restore now.
				return nil
			}
			return func() { f.act.SetDrain(victim, false) }
		}
	}
	return nil
}

// FleetStatus is the controller's operator snapshot.
type FleetStatus struct {
	Nodes         []NodeStat    `json:"nodes"`
	RollingState  string        `json:"rolling_state"`
	RollingVictim string        `json:"rolling_victim,omitempty"`
	Drains        int64         `json:"drains"`
	Restores      int64         `json:"restores"`
	Rejuvenations int64         `json:"rejuvenations"`
	Reboots       []FleetReboot `json:"rolling_reboots"`
}

// Status implements Controller.
func (f *FleetController) Status() any {
	st := FleetStatus{
		RollingState:  f.state.String(),
		RollingVictim: f.victim,
		Drains:        f.drains,
		Restores:      f.restores,
		Rejuvenations: atomic.LoadInt64(&f.rejuvDone),
	}
	for _, name := range f.order {
		st.Nodes = append(st.Nodes, f.nodes[name].last)
	}
	f.rmu.Lock()
	st.Reboots = append([]FleetReboot(nil), f.Reboots...)
	f.rmu.Unlock()
	return st
}
