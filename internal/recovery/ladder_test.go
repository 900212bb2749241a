package recovery

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/sim"
)

func TestLadder(t *testing.T) {
	cases := []struct {
		target string
		level  int
		want   core.Scope
		ok     bool
	}{
		{ebid.ViewItem, -1, 0, false},
		{ebid.ViewItem, 0, core.ScopeComponent, true},
		{ebid.ViewItem, 1, core.ScopeWAR, true},
		{ebid.ViewItem, 2, core.ScopeApp, true},
		{ebid.ViewItem, 3, core.ScopeProcess, true},
		{ebid.ViewItem, 4, core.ScopeNode, true},
		{ebid.ViewItem, 5, 0, false},
		// The WAR is its own scope: a WAR target starts on the WAR rung
		// and exhausts the ladder one level sooner.
		{ebid.WAR, -1, 0, false},
		{ebid.WAR, 0, core.ScopeWAR, true},
		{ebid.WAR, 1, core.ScopeApp, true},
		{ebid.WAR, 2, core.ScopeProcess, true},
		{ebid.WAR, 3, core.ScopeNode, true},
		{ebid.WAR, 4, 0, false},
	}
	for _, c := range cases {
		got, ok := Ladder(c.target, c.level)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Ladder(%s, %d) = %v/%t, want %v/%t", c.target, c.level, got, ok, c.want, c.ok)
		}
	}
}

func TestWARTargetClimbsPastTheWAR(t *testing.T) {
	// Regression: the WAR-diagnosed target used to be rebooted at WAR
	// scope on levels 0 and 1, wasting a rung before the application
	// reboot.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 1, Grace: time.Second, EscalationWindow: 10 * time.Minute})
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			m.Report(Report{Op: ebid.OpHome})
		}
		k.RunFor(30 * time.Second)
	}
	want := []core.Scope{core.ScopeWAR, core.ScopeApp}
	if !reflect.DeepEqual(fr.scopes, want) {
		t.Fatalf("scopes = %v, want %v", fr.scopes, want)
	}
}

// driveToLevel pushes the manager through repeated recoveries of the same
// target so the escalation level climbs one per round.
func driveToLevel(k *sim.Kernel, m *Manager, rounds int) {
	for i := 0; i < rounds; i++ {
		for j := 0; j < 2; j++ {
			m.Report(Report{Op: ebid.ViewItem})
		}
		k.RunFor(30 * time.Second)
	}
}

func TestUpperLadderProcessAndNodeReboots(t *testing.T) {
	// Levels 3 and 4 of the ladder — the expensive end the Figure 1
	// experiments never reach — must issue process and node reboots
	// before the policy exhausts.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 2, Grace: time.Second, EscalationWindow: 10 * time.Minute})
	driveToLevel(k, m, 5) // levels 0..4
	want := []core.Scope{core.ScopeWAR, core.ScopeApp, core.ScopeProcess, core.ScopeNode}
	if !reflect.DeepEqual(fr.scopes, want) {
		t.Fatalf("scopes = %v, want %v", fr.scopes, want)
	}
	if m.HumanNotified() {
		t.Fatal("gave up before the ladder was exhausted")
	}
	if got := m.Actions[len(m.Actions)-1].Scope; got != core.ScopeNode {
		t.Fatalf("last action scope = %v, want node reboot", got)
	}
}

func TestNotifyHumanOnLadderExhaustion(t *testing.T) {
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	var human []string
	m := NewManager(k, fr, Config{Threshold: 2, Grace: time.Second, EscalationWindow: 10 * time.Minute})
	m.NotifyHuman = func(r string) { human = append(human, r) }
	var events []string
	m.OnRecoveryStart = func() { events = append(events, "start") }
	m.OnRecoveryEnd = func() { events = append(events, "end") }
	driveToLevel(k, m, 6) // one past the node reboot
	if len(human) != 1 {
		t.Fatalf("human notifications = %v, want exactly one", human)
	}
	if !m.HumanNotified() {
		t.Fatal("HumanNotified() = false after exhaustion")
	}
	// The give-up still brackets itself with start/end so the LB
	// un-drains the node (5 recoveries + the give-up = 6 pairs).
	if len(events) != 12 || events[10] != "start" || events[11] != "end" {
		t.Fatalf("LB events = %v, want 6 start/end pairs", events)
	}
	// Once the human owns the incident, further evidence is ignored.
	driveToLevel(k, m, 1)
	if len(fr.scopes) != 4 || len(human) != 1 {
		t.Fatal("manager kept acting after notifying the human")
	}
}

func TestForceScopeEveryActionForced(t *testing.T) {
	// The ForceScope baseline reboots the forced scope on every
	// recurrence, never climbs the ladder and never takes the cheap
	// brick-recovery path, even with a dead brick diagnosed each round.
	k := sim.NewKernel(1)
	fr := &fakeRebooter{}
	m := NewManager(k, fr, Config{Threshold: 3, ForceScope: core.ScopeProcess})
	m.Bricks = &fakeBricks{dead: []string{"ssm/s0-r0"}}
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			m.Report(Report{Op: ebid.MakeBid, Kind: "http-error"})
		}
		m.ReportBrickFailure("ssm/s0-r0")
		k.RunFor(30 * time.Second)
	}
	if len(m.Actions) == 0 {
		t.Fatal("baseline produced no actions")
	}
	for _, a := range m.Actions {
		if a.Target == "ssm-bricks" {
			t.Fatal("ForceScope baseline used brick recovery")
		}
		if a.Scope != core.ScopeProcess {
			t.Fatalf("scope = %v, want forced process restart", a.Scope)
		}
	}
}

func TestDiagnosisTopDeterministicTieBreak(t *testing.T) {
	// Guard for the single-pass Top rewrite: equal scores must always
	// resolve to the alphabetically-first suspect, whatever the map
	// iteration order happens to be.
	for i := 0; i < 50; i++ {
		d := NewDiagnosis(Config{})
		_, _ = d.ObserveBrick("zeta")
		_, _ = d.ObserveBrick("alpha")
		_, _ = d.ObserveBrick("mid")
		if name, score := d.Top(); name != "alpha" || score != 1 {
			t.Fatalf("Top() = %q/%v, want alpha/1", name, score)
		}
	}
	d := NewDiagnosis(Config{})
	if name, score := d.Top(); name != "" || score != -1 {
		t.Fatalf("empty Top() = %q/%v", name, score)
	}
}

func TestDiagnosisThresholdAndReset(t *testing.T) {
	d := NewDiagnosis(Config{Threshold: 2})
	if _, triggered := d.ObserveBrick("ssm/s0-r0"); triggered {
		t.Fatal("triggered below threshold")
	}
	name, triggered := d.ObserveBrick("ssm/s0-r0")
	if !triggered || name != "ssm/s0-r0" {
		t.Fatalf("ObserveBrick = %q/%v, want trigger on the brick", name, triggered)
	}
	if got := d.Scores()["ssm/s0-r0"]; got != 2 {
		t.Fatalf("score = %v, want 2", got)
	}
	d.Reset()
	if len(d.Scores()) != 0 {
		t.Fatal("Reset left scores behind")
	}
}
