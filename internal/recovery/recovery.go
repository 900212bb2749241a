// Package recovery implements the paper's recovery manager (RM) as the
// decide/act half of an observe–decide–act control loop: it takes
// failure reports from the client-side monitors (directly, or as a
// controller on the control plane), performs simple score-based
// diagnosis using the static URL→component-path mapping (Diagnosis), and
// recovers the system by climbing the paper's recursive recovery Ladder —
// always try the cheapest reboot first: EJB microreboot, then the WAR,
// then the whole application, then a JVM/JBoss process restart, then an
// operating-system reboot, and finally notify a human. Config.ForceScope
// models the legacy "restart the JVM for everything" baseline.
//
// The diagnosis is deliberately simplistic and yields false positives;
// part of the paper's point is that cheap recovery makes sloppy diagnosis
// tolerable (Section 6.3).
package recovery

import (
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Rebooter abstracts the node-level recovery actions; *cluster.Node
// implements it.
type Rebooter interface {
	Microreboot(names ...string) (*core.Reboot, error)
	RebootScope(scope core.Scope) (*core.Reboot, error)
	Recovering() bool
}

// BrickStore abstracts the session-state brick cluster so RM can recover
// a dead brick the same way it microreboots an EJB: crash-restart it and
// let re-replication restore the shard. *session.SSMCluster implements it.
type BrickStore interface {
	// DeadBricks names the crashed bricks (heartbeat-loss view).
	DeadBricks() []string
	// RestartBrick reboots one brick and re-replicates its shard,
	// returning the modeled recovery duration.
	RestartBrick(name string) (time.Duration, error)
}

// Report is one failure observation from a monitor: the failed end-user
// operation (URL) and the failure type observed.
type Report struct {
	Op   string
	Kind string
}

// Config parameterizes the manager.
type Config struct {
	// Threshold is the score at which RM triggers recovery (default 3).
	Threshold float64
	// Grace is how long after a recovery completes RM ignores residual
	// failure reports before re-diagnosing (default 3 s).
	Grace time.Duration
	// EscalationWindow: a repeat recovery of the same target within this
	// window climbs to the next rung of the Ladder (default 90 s).
	EscalationWindow time.Duration
	// DetectionDelay postpones the recovery action after the threshold
	// is crossed (models Tdet in the Figure 5 experiments).
	DetectionDelay time.Duration
	// ForceScope, when non-zero, makes every recovery action use this
	// scope instead of the Ladder, and skips brick recovery — the legacy
	// "restart the JVM for everything" operation, kept as the baseline.
	ForceScope core.Scope
}

func (c *Config) fill() {
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.Grace == 0 {
		c.Grace = 3 * time.Second
	}
	if c.EscalationWindow == 0 {
		c.EscalationWindow = 90 * time.Second
	}
}

// Action describes one recovery action RM took.
type Action struct {
	At     time.Duration
	Target string
	Scope  core.Scope
	Reboot *core.Reboot
}

// Manager is the recovery manager for one node: the Diagnosis engine
// accumulates evidence, the Ladder picks actions, and the manager owns
// the loop state in between (grace muting, escalation level, the action
// log). It is also a controlplane.Controller (controller.go).
type Manager struct {
	kernel *sim.Kernel
	target Rebooter
	cfg    Config

	diag            *Diagnosis
	mutedUntil      time.Duration
	pendingRecovery bool

	// lastTarget/lastLevel drive the escalation level: the rung of the
	// Ladder the next recovery of lastTarget climbs to.
	lastTarget string
	lastLevel  int
	lastDone   time.Duration

	// Actions is the recovery log.
	Actions []Action
	// Bricks, when set, lets RM restart dead session-state bricks. It is
	// consulted before the Ladder (unless ForceScope is set): a dead
	// brick is the cheapest explanation for widespread session failures,
	// and restarting it is as cheap as an EJB µRB.
	Bricks BrickStore
	// OnRecoveryStart/End announce the recovery lifecycle. The manager
	// never touches the load balancer itself: hosts set these to
	// Plane.ReportNodeRecovery, where the fleet controller turns them
	// into LB drain/restore — the paper's "RM notifies LB" failover, as
	// an observe–decide–act hop.
	OnRecoveryStart func()
	OnRecoveryEnd   func()
	// NotifyHuman fires when the Ladder is exhausted or a recovery action
	// fails.
	NotifyHuman func(reason string)

	humanNotified bool

	// Evidence delivered by the control plane (OnSignal), held for the
	// act closure of the next Tick, and its counts for Status.
	pending                                []Report
	pendingBricks                          []string
	failures, brickFailures, discrepancies int64
}

// NewManager builds a recovery manager driving the given rebooter.
func NewManager(k *sim.Kernel, target Rebooter, cfg Config) *Manager {
	cfg.fill()
	return &Manager{
		kernel: k,
		target: target,
		cfg:    cfg,
		diag:   NewDiagnosis(cfg),
	}
}

// HumanNotified reports whether RM has given up on automatic recovery.
func (m *Manager) HumanNotified() bool { return m.humanNotified }

// muted reports whether new evidence should be ignored right now:
// recovery in flight, inside the post-recovery grace window, or the
// human has taken over.
func (m *Manager) muted() bool {
	return m.pendingRecovery || m.target.Recovering() || m.kernel.Now() < m.mutedUntil || m.humanNotified
}

// Report feeds one failure observation into the manager (monitors send
// these the way the paper's monitors send UDP failure reports).
func (m *Manager) Report(r Report) {
	if m.muted() {
		return
	}
	if name, triggered := m.diag.ObserveFailure(r); triggered {
		m.trigger(name)
	}
}

// ReportBrickFailure feeds one brick heartbeat-loss observation into the
// manager (the SSM's brick monitors send these the way the paper's
// client monitors send UDP failure reports).
func (m *Manager) ReportBrickFailure(brick string) {
	if m.muted() {
		return
	}
	if name, triggered := m.diag.ObserveBrick(brick); triggered {
		m.trigger(name)
	}
}

// trigger runs recovery against the diagnosed component, optionally
// after the configured detection delay.
func (m *Manager) trigger(name string) {
	m.pendingRecovery = true
	m.diag.Reset()
	fire := func() { m.recover(name) }
	if m.cfg.DetectionDelay > 0 {
		m.kernel.Schedule(m.cfg.DetectionDelay, fire)
	} else {
		fire()
	}
}

// recover computes the escalation level (repeated recovery of the same
// target within the escalation window moves one level up) and reboots
// the scope on that rung of the Ladder, or the forced scope.
func (m *Manager) recover(name string) {
	// Dead session-state bricks come first: they are the cheapest
	// recovery (a brick µRB plus re-replication) and the likeliest cause
	// of store-wide session failures. If the diagnosis was wrong, the
	// failures persist and the next trigger climbs the Ladder. The
	// ForceScope baseline must not quietly benefit from them.
	if m.Bricks != nil && m.cfg.ForceScope == 0 {
		if dead := m.Bricks.DeadBricks(); len(dead) > 0 {
			m.recoverBricks(dead)
			return
		}
	}
	level := 0
	if name == m.lastTarget && m.kernel.Now()-m.lastDone <= m.cfg.EscalationWindow {
		level = m.lastLevel + 1
	}
	m.lastTarget = name
	m.lastLevel = level

	if m.OnRecoveryStart != nil {
		m.OnRecoveryStart()
	}
	scope, ok := m.cfg.ForceScope, true
	if scope == 0 {
		scope, ok = Ladder(name, level)
	}
	if !ok {
		m.humanNotified = true
		m.pendingRecovery = false
		if m.NotifyHuman != nil {
			m.NotifyHuman("recursive recovery policy exhausted for " + name)
		}
		if m.OnRecoveryEnd != nil {
			m.OnRecoveryEnd()
		}
		return
	}
	rb, err := RebootRung(m.target, name, scope)
	m.finishRecovery(name, scope, rb, err)
}

// recoverBricks restarts every dead brick (they recover in parallel, so
// the modeled duration is the slowest restart) and logs one EJB-scope
// action with the restarted bricks as members. A brick that refuses to
// restart is skipped rather than aborting the whole action, so one bad
// brick does not keep its healthy peers down. Only when no dead brick
// could be restarted at all does RM escalate to a human.
func (m *Manager) recoverBricks(dead []string) {
	m.lastTarget = "ssm-bricks"
	m.lastLevel = 0
	if m.OnRecoveryStart != nil {
		m.OnRecoveryStart()
	}
	var longest time.Duration
	var restarted []string
	var lastErr error
	for _, brick := range dead {
		d, err := m.Bricks.RestartBrick(brick)
		if err != nil {
			lastErr = err
			continue
		}
		restarted = append(restarted, brick)
		if d > longest {
			longest = d
		}
	}
	if len(restarted) == 0 {
		m.finishRecovery("ssm-bricks", core.ScopeComponent, nil, lastErr)
		return
	}
	rb := &core.Reboot{Scope: core.ScopeComponent, Members: restarted, Reinit: longest}
	m.finishRecovery("ssm-bricks", core.ScopeComponent, rb, nil)
}

func (m *Manager) finishRecovery(name string, scope core.Scope, rb *core.Reboot, err error) {
	if err != nil {
		m.humanNotified = true
		m.pendingRecovery = false
		if m.NotifyHuman != nil {
			m.NotifyHuman("recovery action failed: " + err.Error())
		}
		if m.OnRecoveryEnd != nil {
			m.OnRecoveryEnd()
		}
		return
	}
	m.Actions = append(m.Actions, Action{At: m.kernel.Now(), Target: name, Scope: scope, Reboot: rb})
	// Recovery completes when the reboot does; residual failure reports
	// stay muted for the Grace window after that.
	m.kernel.Schedule(rb.Duration(), func() {
		m.pendingRecovery = false
		m.lastDone = m.kernel.Now()
		m.mutedUntil = m.kernel.Now() + m.cfg.Grace
		if m.OnRecoveryEnd != nil {
			m.OnRecoveryEnd()
		}
	})
}
