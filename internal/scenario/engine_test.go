package scenario

import (
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

func quick() experiments.Options { return experiments.Options{Quick: true} }

func loadScenario(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := LoadFile(filepath.Join("..", "..", "scenarios", name+".toml"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkByName(t *testing.T, out *Outcome, name string) Check {
	t.Helper()
	for _, ch := range out.Checks {
		if ch.Name == name {
			return ch
		}
	}
	t.Fatalf("outcome carries no %q check: %+v", name, out.Checks)
	return Check{}
}

// TestDeliberatelyBrokenScenarioFails is the checker's self-test: a
// scenario asserting an unreachable goodput floor must come back FAIL
// with the violated check identified — if it passes, the invariant
// machinery is decorative.
func TestDeliberatelyBrokenScenarioFails(t *testing.T) {
	s, err := Parse("broken.toml", `name = "broken"
[load]
clients = 5
warmup = "10s"
run = "30s"
[assert]
min_good_ops = 1000000000
max_p99 = "1ms"
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	if out.Passed {
		t.Fatal("impossible assertions passed — the checker is not checking")
	}
	if ch := checkByName(t, out, "min_good_ops"); ch.OK {
		t.Fatalf("min_good_ops check = %+v, want failure", ch)
	}
	if ch := checkByName(t, out, "max_p99"); ch.OK {
		t.Fatalf("max_p99 check = %+v, want failure", ch)
	}
}

// TestNegativeControlScenarioFails runs the shipped negative control: an
// unreplicated ring whose brick crash genuinely loses sessions. The run
// must FAIL its lost_sessions assertion, and the campaign must count
// that failure as the scenario passing (ExpectFail inversion).
func TestNegativeControlScenarioFails(t *testing.T) {
	s := loadScenario(t, "negative-brickloss")
	if !s.ExpectFail {
		t.Fatal("negative-brickloss is not marked expect_fail")
	}
	c, err := RunCampaign([]*Spec{s}, quick())
	if err != nil {
		t.Fatal(err)
	}
	out := c.Results[0].Outcome
	if out.Passed {
		t.Fatal("negative control passed its assertions — session loss was not detected")
	}
	if out.LostSessions == 0 {
		t.Fatalf("unreplicated brick crash lost %d sessions, want > 0", out.LostSessions)
	}
	if ch := checkByName(t, out, "lost_sessions"); ch.OK {
		t.Fatalf("lost_sessions check = %+v, want failure", ch)
	}
	if !c.Results[0].Pass || !c.Passed() {
		t.Fatal("campaign did not invert the negative control's verdict")
	}
}

// The extension experiments exist only as scenario specs; these tests
// hold each spec to the invariants the experiment is about, beyond the
// [assert] table the spec itself carries.

func TestScenarioBrickCrashMatchesFigure(t *testing.T) {
	out, err := Run(loadScenario(t, "brickcrash"), quick())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Passed {
		t.Fatalf("scenario failed:\n%s", out)
	}
	if out.LostSessions != 0 {
		t.Fatalf("lost %d sessions across the crash, want 0", out.LostSessions)
	}
	if out.FailuresDelta != 0 {
		t.Fatalf("user-visible failures grew by %d, want 0", out.FailuresDelta)
	}
	if out.BrickRestarts < 1 {
		t.Fatal("crashed brick never restarted")
	}
	if out.HumanPages != 0 {
		t.Fatalf("recovery paged a human %d times", out.HumanPages)
	}
}

func TestScenarioBrickSlowHoldsTheTail(t *testing.T) {
	out, err := Run(loadScenario(t, "brickslow"), quick())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Passed {
		t.Fatalf("scenario failed:\n%s", out)
	}
	// Fail-stutter, not fail-stop: nobody fails, and routing around the
	// slow replica keeps the tail where a healthy ring has it.
	if out.FailuresDelta != 0 {
		t.Fatalf("slow brick surfaced %d client-visible failures, want 0", out.FailuresDelta)
	}
	if ch := checkByName(t, out, "max_p99"); !ch.OK {
		t.Fatalf("p99 under a slow brick: %+v", ch)
	}
}

func TestScenarioFleetMatchesFigure(t *testing.T) {
	shed, err := Run(loadScenario(t, "fleet"), quick())
	if err != nil {
		t.Fatal(err)
	}
	if !shed.Passed {
		t.Fatalf("fleet scenario failed:\n%s", shed)
	}
	rr, err := Run(loadScenario(t, "fleet-roundrobin"), quick())
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed {
		t.Fatalf("fleet-roundrobin scenario failed:\n%s", rr)
	}
	// The figure's separation: the shedding policy sheds, static
	// round-robin never does, and both keep every session.
	if shed.Shed == 0 {
		t.Fatal("shedding fleet shed nothing under overload")
	}
	if rr.Shed != 0 {
		t.Fatalf("round-robin fleet shed %d requests", rr.Shed)
	}
	if shed.LostSessions != 0 || rr.LostSessions != 0 {
		t.Fatalf("sessions lost: shed=%d rr=%d", shed.LostSessions, rr.LostSessions)
	}
	// Round-robin drowns the degraded node; queue-aware routing plus
	// shedding holds the tail at least 2x lower (quick mode: 50 s vs
	// 567 ms) ...
	if rr.P99 < 2*shed.P99 {
		t.Fatalf("p99: round-robin %v vs shed %v, want >= 2x separation", rr.P99, shed.P99)
	}
	// ... and trades rejected logins for served traffic: goodput must not
	// fall below the collapsing baseline.
	if shed.GoodOps < rr.GoodOps {
		t.Fatalf("good ops: shed %d < round-robin %d", shed.GoodOps, rr.GoodOps)
	}
}

// TestRunDeterministic: same spec, same seed, same kernel — bitwise
// identical counters.
func TestRunDeterministic(t *testing.T) {
	src := `name = "det"
seed = 7
[cluster]
nodes = 2
store = "ssm-cluster"
[load]
clients = 40
warmup = "20s"
run = "1m"
[controlplane]
recovery = true
[[fault]]
at = "30s"
kind = "transient-exception"
component = "ViewItem"
`
	s, err := Parse("det.toml", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed != 7 || b.Seed != 7 {
		t.Fatalf("spec seed not honored: %d/%d", a.Seed, b.Seed)
	}
	if a.GoodOps != b.GoodOps || a.BadOps != b.BadOps || a.P99 != b.P99 || a.Sessions != b.Sessions {
		t.Fatalf("nondeterministic runs:\na=%+v\nb=%+v", a, b)
	}
	// An explicit harness seed overrides the spec's.
	c, err := Run(s, experiments.Options{Quick: true, Seed: 11, SeedSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 11 {
		t.Fatalf("explicit -seed lost to the spec seed: %d", c.Seed)
	}
}
