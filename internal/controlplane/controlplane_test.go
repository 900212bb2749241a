package controlplane

import (
	"errors"
	"testing"
	"time"

	"repro/internal/store/session"
)

// manualClock is a settable Clock.
type manualClock struct{ now time.Duration }

func (c *manualClock) Now() time.Duration      { return c.now }
func (c *manualClock) Advance(d time.Duration) { c.now += d }

func TestBusFanOutAndCounts(t *testing.T) {
	b := &Bus{}
	var got []SignalKind
	b.Subscribe(func(s Signal) { got = append(got, s.Kind) })
	b.Subscribe(func(s Signal) { got = append(got, s.Kind) })
	b.Publish(Signal{Kind: SignalFailure})
	b.Publish(Signal{Kind: SignalNodeLoad})
	if len(got) != 4 || got[0] != SignalFailure || got[3] != SignalNodeLoad {
		t.Fatalf("fan-out = %v", got)
	}
	counts := b.Counts()
	if counts["failure"] != 1 || counts["node-load"] != 1 || counts["brick-dead"] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPlaneProbesClusterAndTicksControllers(t *testing.T) {
	clock := &manualClock{}
	cl, err := session.NewSSMCluster(session.ClusterConfig{Shards: 2, Replicas: 2, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CrashBrick("ssm/s0-r0"); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Clock: clock.Now, Cluster: cl})
	var deadBricks int
	probeWatcher := &funcController{
		name: "watcher",
		onSignal: func(s Signal) {
			if s.Kind == SignalBrickDead {
				deadBricks++
				if s.Brick != "ssm/s0-r0" {
					t.Errorf("brick = %q", s.Brick)
				}
			}
		},
	}
	p.Use(probeWatcher)
	clock.Advance(time.Second)
	p.Tick()
	clock.Advance(time.Second)
	p.Tick()
	if deadBricks != 2 {
		t.Fatalf("deadBricks = %d, want 2", deadBricks)
	}
	if probeWatcher.ticks != 2 {
		t.Fatalf("controller ticks = %d", probeWatcher.ticks)
	}
	st := p.Status()
	if st.Ticks != 2 || st.Signals["brick-dead"] != 2 {
		t.Fatalf("status = %+v", st)
	}
	if _, ok := st.Controllers["watcher"]; !ok {
		t.Fatal("controller status missing")
	}
}

func TestPlaneEmitterHelpersStampTime(t *testing.T) {
	clock := &manualClock{now: 42 * time.Second}
	p := New(Config{Clock: clock.Now})
	var got []Signal
	p.Use(&funcController{name: "rec", onSignal: func(s Signal) { got = append(got, s) }})
	p.ReportFailure("ViewItem", "keyword")
	p.ReportDiscrepancy("AboutMe", "body differs")
	if len(got) != 2 {
		t.Fatalf("signals = %d", len(got))
	}
	if got[0].Kind != SignalFailure || got[0].Op != "ViewItem" || got[0].At != 42*time.Second {
		t.Fatalf("failure signal = %+v", got[0])
	}
	if got[1].Kind != SignalDiscrepancy || got[1].Op != "AboutMe" || got[1].At != 42*time.Second {
		t.Fatalf("discrepancy signal = %+v", got[1])
	}
}

// funcController adapts closures to the Controller interface.
type funcController struct {
	name     string
	onSignal func(Signal)
	ticks    int
}

func (f *funcController) Name() string              { return f.name }
func (f *funcController) OnSignal(s Signal)         { f.onSignal(s) }
func (f *funcController) Tick(time.Duration) func() { f.ticks++; return nil }
func (f *funcController) Status() any               { return map[string]int{"ticks": f.ticks} }

// fakeFleet records drain flips and reboots, and lets tests shape the
// node-load samples the controller sees.
type fakeFleet struct {
	drains   []string // "+name" / "-name"
	reboots  []string
	duration time.Duration
	err      error
}

func (f *fakeFleet) SetDrain(node string, drain bool) bool {
	if drain {
		f.drains = append(f.drains, "+"+node)
	} else {
		f.drains = append(f.drains, "-"+node)
	}
	return true
}

func (f *fakeFleet) RebootNode(node string) (time.Duration, error) {
	f.reboots = append(f.reboots, node)
	return f.duration, f.err
}

// nodeLoad builds one node-load sample.
func nodeLoad(at time.Duration, node string, queue, busy int) Signal {
	return Signal{Kind: SignalNodeLoad, At: at, Node: node,
		Load: NodeStat{Node: node, Queue: queue, Busy: busy, Workers: 4}}
}

// tickFleet runs one decide+act round the way the plane does.
func tickFleet(f *FleetController, now time.Duration) {
	if act := f.Tick(now); act != nil {
		act()
	}
}

func TestFleetControllerDrainsOnRecoverySignals(t *testing.T) {
	fa := &fakeFleet{}
	fc := NewFleetController(fa, FleetConfig{})
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: true})
	// A duplicate edge is idempotent.
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: true})
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: false})
	if len(fa.drains) != 2 || fa.drains[0] != "+node0" || fa.drains[1] != "-node0" {
		t.Fatalf("drains = %v, want one drain and one restore", fa.drains)
	}
	st := fc.Status().(FleetStatus)
	if st.Drains != 1 || st.Restores != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestFleetControllerRollingPassWaitsForDrain(t *testing.T) {
	fa := &fakeFleet{duration: 20 * time.Second}
	fc := NewFleetController(fa, FleetConfig{RejuvenateEvery: time.Second})
	fc.OnSignal(nodeLoad(time.Second, "node0", 0, 2))
	fc.OnSignal(nodeLoad(time.Second, "node1", 0, 0))
	tickFleet(fc, time.Second) // arms the schedule; nothing due

	tickFleet(fc, 2*time.Second) // the first pass is due
	if len(fa.drains) != 1 || fa.drains[0] != "+node0" {
		t.Fatalf("drains = %v, want node0 drained first", fa.drains)
	}
	// Still busy: the reboot must wait.
	fc.OnSignal(nodeLoad(3*time.Second, "node0", 0, 1))
	tickFleet(fc, 3*time.Second)
	if len(fa.reboots) != 0 {
		t.Fatal("rebooted before the node drained")
	}
	// Drained: reboot fires, and the restore waits out the reboot.
	fc.OnSignal(nodeLoad(4*time.Second, "node0", 0, 0))
	tickFleet(fc, 4*time.Second)
	if len(fa.reboots) != 1 || fa.reboots[0] != "node0" {
		t.Fatalf("reboots = %v", fa.reboots)
	}
	tickFleet(fc, 5*time.Second)
	if len(fa.drains) != 1 {
		t.Fatal("restored while the node was still rebooting")
	}
	tickFleet(fc, 24*time.Second+100*time.Millisecond)
	if len(fa.drains) != 2 || fa.drains[1] != "-node0" {
		t.Fatalf("drains = %v, want the restore after the reboot window", fa.drains)
	}
	if fc.Rejuvenations() != 1 {
		t.Fatalf("rejuvenations = %d", fc.Rejuvenations())
	}
}

func TestFleetControllerDrainTimeoutForcesReboot(t *testing.T) {
	fa := &fakeFleet{duration: time.Second}
	fc := NewFleetController(fa, FleetConfig{RejuvenateEvery: 10 * time.Second})
	fc.OnSignal(nodeLoad(time.Second, "node0", 3, 4))
	tickFleet(fc, time.Second)
	tickFleet(fc, 11*time.Second) // schedule due: drain starts
	if len(fa.drains) != 1 {
		t.Fatalf("drains = %v", fa.drains)
	}
	// The node never empties — a wedged request holds a worker — but the
	// drain timeout bounds the wait.
	fc.OnSignal(nodeLoad(12*time.Second, "node0", 0, 1))
	tickFleet(fc, 11*time.Second+drainTimeout-time.Millisecond)
	if len(fa.reboots) != 0 {
		t.Fatal("rebooted before the timeout")
	}
	tickFleet(fc, 11*time.Second+drainTimeout)
	if len(fa.reboots) != 1 {
		t.Fatalf("reboots = %v, want the timeout to force it", fa.reboots)
	}
}

func TestFleetControllerKeepsVictimDrainedThroughRecoverySignals(t *testing.T) {
	fa := &fakeFleet{duration: 10 * time.Second}
	fc := NewFleetController(fa, FleetConfig{RejuvenateEvery: time.Second})
	fc.OnSignal(nodeLoad(time.Second, "node0", 0, 0))
	tickFleet(fc, time.Second)
	tickFleet(fc, 2*time.Second) // pass starts: node0 drained

	// A component recovery on the victim completes mid-pass: its
	// recovered edge must NOT undrain the node the rolling reboot owns.
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: true})
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: false})
	for _, d := range fa.drains[1:] {
		if d == "-node0" {
			t.Fatalf("recovery signal undrained the rolling victim: %v", fa.drains)
		}
	}
	// The pass still completes and restores exactly once.
	fc.OnSignal(nodeLoad(3*time.Second, "node0", 0, 0))
	tickFleet(fc, 3*time.Second) // reboot fires
	tickFleet(fc, 14*time.Second)
	if fa.drains[len(fa.drains)-1] != "-node0" {
		t.Fatalf("pass did not restore the victim: %v", fa.drains)
	}
}

func TestFleetControllerFailedRebootIsNotARejuvenation(t *testing.T) {
	fa := &fakeFleet{err: errors.New("node vanished")}
	fc := NewFleetController(fa, FleetConfig{RejuvenateEvery: time.Second})
	fc.OnSignal(nodeLoad(time.Second, "node0", 0, 0))
	tickFleet(fc, time.Second)
	tickFleet(fc, 2*time.Second) // drain
	fc.OnSignal(nodeLoad(3*time.Second, "node0", 0, 0))
	tickFleet(fc, 3*time.Second) // reboot attempt fails
	tickFleet(fc, 4*time.Second) // pass ends: drain restored, no credit
	if fc.Rejuvenations() != 0 {
		t.Fatalf("rejuvenations = %d after a failed reboot, want 0", fc.Rejuvenations())
	}
	st := fc.Status().(FleetStatus)
	if len(st.Reboots) != 1 || st.Reboots[0].Err == "" {
		t.Fatalf("reboot log = %+v, want one errored entry", st.Reboots)
	}
	if fa.drains[len(fa.drains)-1] != "-node0" {
		t.Fatalf("failed pass left node0 drained: %v", fa.drains)
	}
}

func TestFleetControllerHoldsWhileRecoveryDrains(t *testing.T) {
	fa := &fakeFleet{duration: time.Second}
	fc := NewFleetController(fa, FleetConfig{RejuvenateEvery: time.Second})
	fc.OnSignal(nodeLoad(time.Second, "node0", 0, 0))
	tickFleet(fc, time.Second)
	// A recovery is in flight: the pass due now must not stack a second
	// drain on the fleet.
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: true})
	tickFleet(fc, 2*time.Second)
	if len(fa.reboots) != 0 || len(fa.drains) != 1 {
		t.Fatalf("rolling pass started during recovery: drains=%v reboots=%v", fa.drains, fa.reboots)
	}
	fc.OnSignal(Signal{Kind: SignalNodeRecovery, Node: "node0", Recovering: false})
	fc.OnSignal(nodeLoad(3*time.Second, "node0", 0, 0))
	tickFleet(fc, 3*time.Second)
	if len(fa.drains) != 3 || fa.drains[2] != "+node0" {
		t.Fatalf("queued pass did not start after recovery: %v", fa.drains)
	}
}

func TestPlaneFleetProbePublishesNodeLoad(t *testing.T) {
	clock := &manualClock{}
	probe := fleetProbeFunc(func() []NodeStat {
		return []NodeStat{{Node: "node0", Queue: 3, Busy: 2}, {Node: "node1"}}
	})
	p := New(Config{Clock: clock.Now, Fleet: probe})
	var got []Signal
	p.Use(&funcController{name: "watch", onSignal: func(s Signal) {
		if s.Kind == SignalNodeLoad {
			got = append(got, s)
		}
	}})
	clock.Advance(time.Second)
	p.Tick()
	clock.Advance(time.Second)
	p.Tick()
	if len(got) != 4 {
		t.Fatalf("node-load signals = %d, want 2 nodes × 2 ticks", len(got))
	}
	if got[0].Node != "node0" || got[0].Load.Queue != 3 || got[0].Load.Busy != 2 {
		t.Fatalf("sample = %+v", got[0])
	}
	if st := p.Status(); st.Signals["node-load"] != 4 {
		t.Fatalf("status counts = %v", st.Signals)
	}
	if ctrls := p.Status().Controllers; len(ctrls) != 1 || ctrls["watch"] == nil {
		t.Fatalf("controllers = %v, want only watch", ctrls)
	}
}

type fleetProbeFunc func() []NodeStat

func (f fleetProbeFunc) FleetStats() []NodeStat { return f() }
