package recovery

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/sim"
)

// fakeRebooter records recovery actions without a real node.
type fakeRebooter struct {
	micro  [][]string
	scopes []core.Scope
	// failAll makes every action error (for NotifyHuman paths).
	failAll bool
	cost    time.Duration
}

func (f *fakeRebooter) Microreboot(names ...string) (*core.Reboot, error) {
	if f.failAll {
		return nil, core.ErrNotBound
	}
	f.micro = append(f.micro, names)
	return &core.Reboot{Scope: core.ScopeComponent, Members: names, Reinit: f.costOr(500 * time.Millisecond)}, nil
}

func (f *fakeRebooter) RebootScope(scope core.Scope) (*core.Reboot, error) {
	if f.failAll {
		return nil, core.ErrNotBound
	}
	f.scopes = append(f.scopes, scope)
	return &core.Reboot{Scope: scope, Reinit: f.costOr(time.Second)}, nil
}

func (f *fakeRebooter) costOr(d time.Duration) time.Duration {
	if f.cost > 0 {
		return f.cost
	}
	return d
}

func (f *fakeRebooter) Recovering() bool { return false }

func TestDiagnosisBlamesTheFailingOperation(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 3})
	for i := 0; i < 3; i++ {
		m.Report(Report{Op: ebid.MakeBid, Kind: "http-error"})
	}
	k.Drain()
	if len(fr.micro) != 1 || fr.micro[0][0] != ebid.MakeBid {
		t.Fatalf("recovery actions = %v, want µRB of MakeBid", fr.micro)
	}
	if len(m.Actions) != 1 || m.Actions[0].Scope != core.ScopeComponent {
		t.Fatalf("actions = %+v", m.Actions)
	}
}

func TestDiagnosisBlamesSharedEntityAcrossOps(t *testing.T) {
	// Failures across many different operations that all touch the
	// EntityGroup should accumulate on an entity, not any single session
	// component.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 2})
	m.Report(Report{Op: ebid.ViewItem})
	m.Report(Report{Op: ebid.SearchItemsByCategory})
	m.Report(Report{Op: ebid.MakeBid})
	m.Report(Report{Op: ebid.DoBuyNow})
	k.Drain()
	if len(fr.micro) != 1 {
		t.Fatalf("recoveries = %v", fr.micro)
	}
	if fr.micro[0][0] != ebid.EntItem {
		t.Fatalf("blamed %v, want the shared Item entity", fr.micro[0])
	}
}

func TestEscalationLadder(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	var human []string
	m := NewManager(k, fr, Config{Threshold: 2, Grace: time.Second, EscalationWindow: 10 * time.Minute})
	m.NotifyHuman = func(reason string) { human = append(human, reason) }

	fail := func() {
		for i := 0; i < 2; i++ {
			m.Report(Report{Op: ebid.ViewItem})
		}
		k.RunFor(30 * time.Second)
	}
	fail() // level 0: EJB µRB
	fail() // level 1: WAR
	fail() // level 2: app
	fail() // level 3: process
	fail() // level 4: node
	fail() // level 5: human

	if len(fr.micro) != 1 {
		t.Fatalf("µRBs = %v, want 1", fr.micro)
	}
	want := []core.Scope{core.ScopeWAR, core.ScopeApp, core.ScopeProcess, core.ScopeNode}
	if len(fr.scopes) != len(want) {
		t.Fatalf("scopes = %v, want %v", fr.scopes, want)
	}
	for i := range want {
		if fr.scopes[i] != want[i] {
			t.Fatalf("scopes = %v, want %v", fr.scopes, want)
		}
	}
	if len(human) != 1 {
		t.Fatalf("human notifications = %v", human)
	}
	if !m.HumanNotified() {
		t.Fatal("HumanNotified() = false")
	}
	// Once the human is notified, RM stops acting.
	fail()
	if len(fr.scopes) != len(want) {
		t.Fatal("RM acted after giving up")
	}
}

func TestEscalationResetsAcrossWindow(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 2, Grace: time.Second, EscalationWindow: time.Minute})
	for i := 0; i < 2; i++ {
		m.Report(Report{Op: ebid.ViewItem})
	}
	k.RunFor(30 * time.Second)
	// Well past the escalation window: same target starts at level 0.
	k.RunFor(10 * time.Minute)
	for i := 0; i < 2; i++ {
		m.Report(Report{Op: ebid.ViewItem})
	}
	k.Drain()
	if len(fr.micro) != 2 || len(fr.scopes) != 0 {
		t.Fatalf("micro=%v scopes=%v, want two component-level µRBs", fr.micro, fr.scopes)
	}
}

func TestReportsMutedDuringRecovery(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{cost: 10 * time.Second}
	m := NewManager(k, fr, Config{Threshold: 2, Grace: 5 * time.Second})
	for i := 0; i < 2; i++ {
		m.Report(Report{Op: ebid.ViewItem})
	}
	// Recovery in progress: the flood of residual failures is ignored.
	for i := 0; i < 100; i++ {
		m.Report(Report{Op: ebid.ViewItem})
	}
	k.RunFor(20 * time.Second)
	if len(fr.micro) != 1 {
		t.Fatalf("recoveries = %d, want 1 (reports during recovery muted)", len(fr.micro))
	}
}

func TestGraceMutesResidualReportsAfterRecovery(t *testing.T) {
	// Regression: finishRecovery used to set mutedUntil = now(), so the
	// Grace window never muted anything — the first residual failure
	// report after a recovery immediately re-triggered diagnosis.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{cost: 500 * time.Millisecond}
	m := NewManager(k, fr, Config{Threshold: 1, Grace: 5 * time.Second})
	m.Report(Report{Op: ebid.ViewItem})
	k.RunFor(time.Second) // recovery completes at 500ms; muted until 5.5s
	if len(fr.micro) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(fr.micro))
	}
	m.Report(Report{Op: ebid.ViewItem}) // residual failure at t=1s
	k.RunFor(time.Second)
	if len(fr.micro) != 1 {
		t.Fatalf("residual report inside the grace window re-triggered recovery (got %d)", len(fr.micro))
	}
	k.RunFor(10 * time.Second) // well past mutedUntil
	m.Report(Report{Op: ebid.ViewItem})
	k.Drain()
	// The repeat recovery escalates (same target within the window), so
	// count recovery actions rather than µRBs.
	if len(m.Actions) != 2 {
		t.Fatalf("report after the grace window was ignored (actions = %+v)", m.Actions)
	}
}

// fakeBricks is a BrickStore double: bricks die and restart by name.
type fakeBricks struct {
	dead      []string
	restarted []string
	fail      bool
	// failNames makes specific bricks refuse to restart.
	failNames map[string]bool
}

func (f *fakeBricks) DeadBricks() []string { return append([]string(nil), f.dead...) }

func (f *fakeBricks) RestartBrick(name string) (time.Duration, error) {
	if f.fail || f.failNames[name] {
		return 0, core.ErrNotBound
	}
	f.restarted = append(f.restarted, name)
	for i, d := range f.dead {
		if d == name {
			f.dead = append(f.dead[:i], f.dead[i+1:]...)
			break
		}
	}
	return 2 * time.Second, nil
}

func TestBrickFailureRecoversBrickLikeAnEJB(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	fb := &fakeBricks{dead: []string{"ssm/s0-r1"}}
	m := NewManager(k, fr, Config{Threshold: 3})
	m.Bricks = fb
	for i := 0; i < 3; i++ {
		m.ReportBrickFailure("ssm/s0-r1")
	}
	k.Drain()
	if len(fb.restarted) != 1 || fb.restarted[0] != "ssm/s0-r1" {
		t.Fatalf("restarted = %v, want the dead brick", fb.restarted)
	}
	if len(fr.micro) != 0 || len(fr.scopes) != 0 {
		t.Fatalf("RM rebooted application components (%v/%v) for a brick failure", fr.micro, fr.scopes)
	}
	if len(m.Actions) != 1 || m.Actions[0].Target != "ssm-bricks" || m.Actions[0].Scope != core.ScopeComponent {
		t.Fatalf("actions = %+v", m.Actions)
	}
	if got := m.Actions[0].Reboot.Duration(); got != 2*time.Second {
		t.Fatalf("modeled brick recovery = %v, want 2s", got)
	}
}

func TestDeadBrickPreemptsComponentPolicy(t *testing.T) {
	// Session failures diagnosed onto a component still recover the dead
	// brick first — the cheapest explanation for store-wide failures.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	fb := &fakeBricks{dead: []string{"ssm/s2-r0"}}
	m := NewManager(k, fr, Config{Threshold: 3})
	m.Bricks = fb
	for i := 0; i < 3; i++ {
		m.Report(Report{Op: ebid.MakeBid, Kind: "http-error"})
	}
	k.Drain()
	if len(fb.restarted) != 1 {
		t.Fatalf("dead brick not restarted: %v", fb.restarted)
	}
	if len(fr.micro) != 0 {
		t.Fatalf("component µRB ran before brick recovery: %v", fr.micro)
	}
	// With the brick healthy again, recurring failures walk the normal
	// component policy.
	k.RunFor(time.Minute)
	for i := 0; i < 3; i++ {
		m.Report(Report{Op: ebid.MakeBid, Kind: "http-error"})
	}
	k.Drain()
	if len(fr.micro) != 1 || fr.micro[0][0] != ebid.MakeBid {
		t.Fatalf("component recovery after brick heal = %v", fr.micro)
	}
}

func TestForceScopeOverridesBrickRecovery(t *testing.T) {
	// The legacy "restart the JVM for everything" baseline (ForceScope)
	// must not quietly use the cheap brick recovery path.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	fb := &fakeBricks{dead: []string{"ssm/s0-r0"}}
	m := NewManager(k, fr, Config{Threshold: 1, ForceScope: core.ScopeProcess})
	m.Bricks = fb
	m.ReportBrickFailure("ssm/s0-r0")
	k.Drain()
	if len(fb.restarted) != 0 {
		t.Fatalf("ForceScope baseline restarted bricks: %v", fb.restarted)
	}
	if len(fr.scopes) != 1 || fr.scopes[0] != core.ScopeProcess {
		t.Fatalf("scopes = %v, want the forced process restart", fr.scopes)
	}
}

func TestRetiredBrickSkippedDuringBrickRecovery(t *testing.T) {
	// A brick that refuses to restart must not keep its dead peers down:
	// RM restarts the bricks it can and does not treat the one refusal
	// as an emergency.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	fb := &fakeBricks{
		dead:      []string{"ssm/s0-r0", "ssm/s1-r2"},
		failNames: map[string]bool{"ssm/s0-r0": true},
	}
	var human []string
	m := NewManager(k, fr, Config{Threshold: 1})
	m.Bricks = fb
	m.NotifyHuman = func(r string) { human = append(human, r) }
	m.ReportBrickFailure("ssm/s1-r2")
	k.Drain()
	if len(human) != 0 {
		t.Fatalf("human notified for one refused restart: %v", human)
	}
	if len(fb.restarted) != 1 || fb.restarted[0] != "ssm/s1-r2" {
		t.Fatalf("restarted = %v, want just the live dead brick", fb.restarted)
	}
	if len(m.Actions) != 1 {
		t.Fatalf("actions = %+v", m.Actions)
	}
	if members := m.Actions[0].Reboot.Members; len(members) != 1 || members[0] != "ssm/s1-r2" {
		t.Fatalf("action members = %v, want only the restarted brick", members)
	}
}

func TestBrickRestartFailureNotifiesHuman(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	fb := &fakeBricks{dead: []string{"ssm/s0-r0"}, fail: true}
	var human []string
	m := NewManager(k, fr, Config{Threshold: 1})
	m.Bricks = fb
	m.NotifyHuman = func(r string) { human = append(human, r) }
	m.ReportBrickFailure("ssm/s0-r0")
	k.Drain()
	if len(human) != 1 {
		t.Fatalf("human notifications = %v", human)
	}
}

func TestDetectionDelayPostponesRecovery(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 1, DetectionDelay: 30 * time.Second})
	m.Report(Report{Op: ebid.ViewItem})
	k.RunFor(10 * time.Second)
	if len(fr.micro) != 0 {
		t.Fatal("recovery fired before the detection delay")
	}
	k.RunFor(25 * time.Second)
	if len(fr.micro) != 1 {
		t.Fatal("recovery did not fire after the detection delay")
	}
}

func TestLBNotifications(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 1, Grace: time.Second})
	var events []string
	m.OnRecoveryStart = func() { events = append(events, "start") }
	m.OnRecoveryEnd = func() { events = append(events, "end") }
	m.Report(Report{Op: ebid.ViewItem})
	k.RunFor(time.Minute)
	if len(events) != 2 || events[0] != "start" || events[1] != "end" {
		t.Fatalf("events = %v", events)
	}
}

func TestActionFailureNotifiesHuman(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{failAll: true}
	var human []string
	m := NewManager(k, fr, Config{Threshold: 1})
	m.NotifyHuman = func(r string) { human = append(human, r) }
	m.Report(Report{Op: ebid.ViewItem})
	k.Drain()
	if len(human) != 1 {
		t.Fatalf("human = %v", human)
	}
}

func TestUnknownOpStillScored(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 1})
	m.Report(Report{Op: "TotallyUnknown"})
	k.Drain()
	// Unknown URLs fall back to blaming the WAR.
	if len(fr.scopes) != 1 || fr.scopes[0] != core.ScopeWAR {
		t.Fatalf("scopes = %v, want WAR reboot", fr.scopes)
	}
}

func TestManagerBuffersSignalsUntilTick(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 100})
	m.OnSignal(controlplane.Signal{Kind: controlplane.SignalFailure, Op: ebid.MakeBid, FailureKind: "http-error"})
	m.OnSignal(controlplane.Signal{Kind: controlplane.SignalBrickDead, Brick: "ssm/s0-r1"})
	m.OnSignal(controlplane.Signal{Kind: controlplane.SignalNodeLoad, Node: "n0"})
	// OnSignal only observes: the diagnosis must see nothing until the
	// act closure from Tick runs — a Report can synchronously trigger a
	// recovery that re-enters the plane, so it must run lock-free.
	if scores := m.diag.Scores(); len(scores) != 0 {
		t.Fatalf("diagnosis fed before tick: %v", scores)
	}
	if want := []Report{{Op: ebid.MakeBid, Kind: "http-error"}}; !reflect.DeepEqual(m.pending, want) {
		t.Fatalf("pending = %+v, want %+v", m.pending, want)
	}
	if want := []string{"ssm/s0-r1"}; !reflect.DeepEqual(m.pendingBricks, want) {
		t.Fatalf("pending bricks = %v, want %v", m.pendingBricks, want)
	}
	act := m.Tick(time.Second)
	if act == nil {
		t.Fatal("Tick returned no act closure with pending evidence")
	}
	act()
	scores := m.diag.Scores()
	if scores[ebid.MakeBid] != sessionWeight || scores["ssm/s0-r1"] != sessionWeight {
		t.Fatalf("scores after act = %v, want the failure and the brick", scores)
	}
	if st := m.Status().(Status); st != (Status{FailureReports: 1, BrickFailures: 1}) {
		t.Fatalf("status = %+v", st)
	}
	// The buffer drained: a quiet tick has nothing to act on.
	if m.Tick(time.Second) != nil {
		t.Fatal("Tick re-delivered drained evidence")
	}
}

func TestManagerBuffersDiscrepancies(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewManager(k, &fakeRebooter{}, Config{Threshold: 100})
	m.OnSignal(controlplane.Signal{Kind: controlplane.SignalDiscrepancy, Op: ebid.ViewItem, Detail: "body differs"})
	want := []Report{{Op: ebid.ViewItem, Kind: "comparison-mismatch"}}
	if !reflect.DeepEqual(m.pending, want) {
		t.Fatalf("pending = %+v, want %+v", m.pending, want)
	}
	act := m.Tick(time.Second)
	if act == nil {
		t.Fatal("Tick returned no act closure for a discrepancy")
	}
	act()
	if got := m.diag.Scores()[ebid.ViewItem]; got != sessionWeight {
		t.Fatalf("ViewItem score = %v, want the discrepancy delivered", got)
	}
	if st := m.Status().(Status); st != (Status{Discrepancies: 1}) {
		t.Fatalf("status = %+v", st)
	}
}
