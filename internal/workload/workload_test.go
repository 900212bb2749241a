package workload

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ebid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// instantFrontend completes every request immediately with success, or
// with a scripted error for chosen ops.
type instantFrontend struct {
	k      *sim.Kernel
	failOp string
	err    error
	count  map[string]int
}

func (f *instantFrontend) Submit(req *Request) {
	if f.count == nil {
		f.count = map[string]int{}
	}
	f.count[req.Op]++
	resp := Response{Body: "<html>ok</html>"}
	if f.failOp != "" && req.Op == f.failOp {
		resp = Response{Err: f.err}
	}
	// Completion happens "now" — zero service time.
	f.k.Schedule(0, func() { req.Complete(resp) })
}

func TestTable1Mix(t *testing.T) {
	k := sim.NewKernel(7)
	fe := &instantFrontend{k: k}
	rec := metrics.NewRecorder(time.Second, 8*time.Second)
	em := NewEmulator(k, fe, rec, Config{Clients: 200})
	em.Start()
	k.RunFor(2 * time.Hour) // ~200k ops at 200 clients / 7 s think time
	em.Stop()

	total := 0
	byCat := map[string]int{}
	for op, n := range fe.count {
		info, ok := ebid.Info(op)
		if !ok {
			t.Fatalf("emulator issued unknown op %q", op)
		}
		byCat[info.Category] += n
		total += n
	}
	if total < 50000 {
		t.Fatalf("only %d ops issued; emulator stalled?", total)
	}
	// Table 1 targets.
	want := map[string]float64{
		ebid.CatReadOnlyDB:    0.32,
		ebid.CatSessionInit:   0.23,
		ebid.CatStatic:        0.12,
		ebid.CatSearch:        0.12,
		ebid.CatSessionUpdate: 0.11,
		ebid.CatDBUpdate:      0.10,
	}
	const tolerance = 0.045
	for cat, target := range want {
		got := float64(byCat[cat]) / float64(total)
		if math.Abs(got-target) > tolerance {
			t.Errorf("category %q: mix = %.3f, want %.2f ± %.3f", cat, got, target, tolerance)
		}
		t.Logf("%-45s %5.1f%% (paper: %2.0f%%)", cat, got*100, target*100)
	}
}

func TestThroughputMatchesLittleLaw(t *testing.T) {
	// 500 clients with 7 s mean think time ≈ 71 req/s (Table 5's ~72).
	k := sim.NewKernel(3)
	fe := &instantFrontend{k: k}
	em := NewEmulator(k, fe, nil, Config{Clients: 500})
	em.Start()
	k.RunFor(10 * time.Minute)
	rate := float64(em.Issued()) / (10 * 60)
	if rate < 60 || rate > 85 {
		t.Fatalf("offered load = %.1f req/s, want ~71", rate)
	}
}

func TestActionAccounting(t *testing.T) {
	k := sim.NewKernel(5)
	fe := &instantFrontend{k: k}
	rec := metrics.NewRecorder(time.Second, 8*time.Second)
	em := NewEmulator(k, fe, rec, Config{Clients: 50})
	em.Start()
	k.RunFor(30 * time.Minute)
	em.Stop()
	em.FlushActions()
	if rec.GoodActions() == 0 {
		t.Fatal("no actions recorded")
	}
	if rec.FailedActions() != 0 {
		t.Fatalf("failed actions = %d on a fault-free run", rec.FailedActions())
	}
	opsPerAction := float64(rec.GoodOps()) / float64(rec.GoodActions())
	// The paper's Figure 1 averages ≈3.8 ops/action; accept 2–5.
	if opsPerAction < 2 || opsPerAction > 5 {
		t.Fatalf("ops/action = %.2f, want 2–5", opsPerAction)
	}
	t.Logf("ops/action = %.2f", opsPerAction)
}

func TestFailurePropagation(t *testing.T) {
	k := sim.NewKernel(9)
	fe := &instantFrontend{k: k, failOp: ebid.ViewItem, err: errors.New("injected exception")}
	rec := metrics.NewRecorder(time.Second, 8*time.Second)
	em := NewEmulator(k, fe, rec, Config{Clients: 100})
	var failures int
	em.OnFailure(func(clientID int, op string, resp Response) {
		if op != ebid.ViewItem {
			t.Errorf("failure reported for %s, want ViewItem", op)
		}
		failures++
	})
	em.Start()
	k.RunFor(20 * time.Minute)
	em.Stop()
	em.FlushActions()
	if failures == 0 {
		t.Fatal("no failures reported")
	}
	if rec.FailedActions() == 0 {
		t.Fatal("failed ops did not fail their actions")
	}
	// Retroactive marking means bad ops ≥ failures.
	if rec.BadOps() < int64(failures) {
		t.Fatalf("bad ops %d < failures %d", rec.BadOps(), failures)
	}
}

func TestSessionLossSendsClientToLogin(t *testing.T) {
	k := sim.NewKernel(11)
	fe := &instantFrontend{k: k, failOp: ebid.AboutMe, err: ebid.ErrNotLoggedIn}
	em := NewEmulator(k, fe, nil, Config{Clients: 20})
	em.Start()
	k.RunFor(30 * time.Minute)
	em.Stop()
	// After AboutMe failures, clients must restart sessions: Home and
	// Authenticate counts grow well beyond the no-loss baseline.
	if fe.count[ebid.OpHome] == 0 || fe.count[ebid.Authenticate] == 0 {
		t.Fatal("clients never came back to login after session loss")
	}
	if fe.count[ebid.OpHome] < fe.count[ebid.AboutMe]/2 {
		t.Fatalf("Home count %d too low relative to AboutMe failures %d",
			fe.count[ebid.OpHome], fe.count[ebid.AboutMe])
	}
}

func TestKeywordDetector(t *testing.T) {
	for body, faulty := range map[string]bool{
		"<html>ok</html>":                      false,
		"<html>NullPointerException</html>":    true,
		"<html>operation FAILED</html>":        true,
		"<html>Error 500</html>":               true,
		"<html>errorless content... no</html>": true, // substring match, as in the paper's grep
		"<html>item 7: gadget, 3 bids</html>":  false,
	} {
		if got := looksFaulty(body); got != faulty {
			t.Errorf("looksFaulty(%q) = %v, want %v", body, got, faulty)
		}
	}
}

func TestStopHaltsIssuing(t *testing.T) {
	k := sim.NewKernel(2)
	fe := &instantFrontend{k: k}
	em := NewEmulator(k, fe, nil, Config{Clients: 10})
	em.Start()
	k.RunFor(time.Minute)
	em.Stop()
	before := em.Issued()
	k.RunFor(10 * time.Minute)
	if em.Issued() != before {
		t.Fatalf("requests issued after Stop: %d -> %d", before, em.Issued())
	}
}

func TestSessionIDsRotateAtNextVisit(t *testing.T) {
	// Regression: the session id used to rotate when Logout was chosen,
	// so the Logout op carried the NEXT visit's id and the server never
	// deleted the real session (it leaked until lease expiry).
	k := sim.NewKernel(5)
	e := NewEmulator(k, nil, nil, Config{Clients: 0})
	c := newClient(e, 3)
	if op, _ := c.nextOp(); op != ebid.OpHome {
		t.Fatalf("first op = %s, want Home", op)
	}
	visit := c.sessionID()
	// Fast-forward to the end of a quick visit: the next op is Logout.
	c.phase = phaseBrowsing
	c.quick = true
	c.quickN = 1
	if op, _ := c.nextOp(); op != ebid.OpLogout {
		t.Fatalf("op = %s, want Logout", op)
	}
	if got := c.sessionID(); got != visit {
		t.Fatalf("logout would delete %s, want the session it belongs to (%s)", got, visit)
	}
	if op, _ := c.nextOp(); op != ebid.OpHome {
		t.Fatal("next visit did not start at Home")
	}
	if got := c.sessionID(); got == visit {
		t.Fatalf("session id did not rotate for the new visit: %s", got)
	}
}
