package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/recovery"
	"repro/internal/workload"
)

var quick = Options{Quick: true}

func TestTable1MixShape(t *testing.T) {
	r := Table1(quick)
	if r.Total < 10000 {
		t.Fatalf("only %d requests", r.Total)
	}
	want := map[string]float64{
		ebid.CatReadOnlyDB: 0.32, ebid.CatSessionInit: 0.23, ebid.CatStatic: 0.12,
		ebid.CatSearch: 0.12, ebid.CatSessionUpdate: 0.11, ebid.CatDBUpdate: 0.10,
	}
	for cat, target := range want {
		if math.Abs(r.Share[cat]-target) > 0.05 {
			t.Errorf("%s = %.3f, want %.2f ± 0.05", cat, r.Share[cat], target)
		}
	}
	if !strings.Contains(r.String(), "Table 1") {
		t.Fatal("String() malformed")
	}
}

func TestTable2MatrixMatchesPaper(t *testing.T) {
	r := Table2(quick)
	if len(r.Rows) != 26 {
		t.Fatalf("rows = %d, want 26", len(r.Rows))
	}
	mismatches := 0
	for _, row := range r.Rows {
		if !row.Match {
			mismatches++
			t.Logf("MISMATCH: %s/%s observed %q paper %q", row.Fault, row.Mode, row.ObservedCure, row.PaperCure)
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d rows deviate from Table 2", mismatches)
	}
}

func TestTable3WithinPaperRange(t *testing.T) {
	r := Table3(quick)
	if len(r.Rows) != 25 { // 21 session/entity comps + EntityGroup + WAR + eBid + JVM
		t.Fatalf("rows = %d, want 25", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Paper == 0 {
			continue
		}
		ratio := float64(row.Total) / float64(row.Paper)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: total %v vs paper %v", row.Component, row.Total, row.Paper)
		}
	}
	// Ordering: EJB µRB << app restart << process restart.
	var entityGroup, app, jvm time.Duration
	for _, row := range r.Rows {
		switch row.Component {
		case "EntityGroup":
			entityGroup = row.Total
		case "eBid":
			app = row.Total
		case "JVM restart":
			jvm = row.Total
		}
	}
	if !(entityGroup < app && app < jvm) {
		t.Fatalf("ordering broken: group=%v app=%v jvm=%v", entityGroup, app, jvm)
	}
}

func TestFigure1OrderOfMagnitude(t *testing.T) {
	r := Figure1(quick)
	if len(r.MicroActions) == 0 || len(r.RestartActions) == 0 {
		t.Fatalf("recovery actions: µRB=%d restart=%d", len(r.MicroActions), len(r.RestartActions))
	}
	if r.MicroFailedReqs == 0 {
		t.Fatal("µRB run failed zero requests — model too forgiving")
	}
	ratio := float64(r.RestartFailedReqs) / float64(r.MicroFailedReqs)
	if ratio < 8 {
		t.Fatalf("restart/µRB failed-request ratio = %.1f, want ≥8 (order of magnitude)", ratio)
	}
	t.Logf("failed: µRB=%d restart=%d (%.0fx); per-recovery µRB=%.0f restart=%.0f",
		r.MicroFailedReqs, r.RestartFailedReqs, ratio, r.MicroAvgPerRecovery, r.RestartAvgPerRecovery)
}

func TestFigure2MicroDisruptionIsPartial(t *testing.T) {
	r := Figure2(quick)
	if r.MicroTotalDown > 0 {
		t.Fatalf("µRB run had %v of total outage; paper: partial disruption only", r.MicroTotalDown)
	}
	if r.RestartTotalDown == 0 {
		t.Fatal("restart run showed no total outage; expected the restart window down")
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	r := Figure3(quick)
	for _, row := range r.Rows {
		if row.MicroFailed >= row.RestartFailed {
			t.Fatalf("%d nodes: µRB failed %d ≥ restart %d", row.Nodes, row.MicroFailed, row.RestartFailed)
		}
		if row.RestartSessions == 0 {
			t.Fatalf("%d nodes: no sessions failed over under restart", row.Nodes)
		}
	}
	// Relative failure percentage declines with cluster size.
	if len(r.Rows) >= 2 {
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if last.RestartPct >= first.RestartPct {
			t.Fatalf("restart %% did not decline with cluster size: %.2f -> %.2f",
				first.RestartPct, last.RestartPct)
		}
	}
	t.Log("\n" + r.String())
}

func TestFigure4ShapeHolds(t *testing.T) {
	r := Figure4(quick)
	for _, row := range r.Rows {
		if row.RestartOver8s < row.MicroOver8s {
			t.Fatalf("%d nodes: restart over-8s %d < µRB %d", row.Nodes, row.RestartOver8s, row.MicroOver8s)
		}
	}
	// Two-node restart must show heavy slow-request counts; µRB nearly none.
	first := r.Rows[0]
	if first.RestartOver8s == 0 {
		t.Fatal("2-node restart failover produced no >8s requests; overload model broken")
	}
	if first.MicroOver8s > first.RestartOver8s/10 {
		t.Fatalf("µRB over-8s %d not an order below restart %d", first.MicroOver8s, first.RestartOver8s)
	}
	t.Log("\n" + r.String())
}

func TestFigure5LeftCrossover(t *testing.T) {
	r := Figure5Left(quick)
	if r.CrossoverTdet < 5*time.Second {
		t.Fatalf("crossover Tdet = %v, want ≥5s (paper: 53.5s)", r.CrossoverTdet)
	}
	// Failed requests grow with Tdet for µRB.
	if r.Micro[len(r.Micro)-1].Failed <= r.Micro[0].Failed {
		t.Fatal("µRB failures did not grow with detection delay")
	}
	t.Log("\n" + r.String())
}

func TestFigure5RightTolerance(t *testing.T) {
	r := Figure5Right(78, 3917)
	if r.ToleratedFPRate < 0.95 {
		t.Fatalf("tolerated FP rate = %.3f, want ≥0.95 (paper: 0.98)", r.ToleratedFPRate)
	}
	// Monotone growth of failures with FP rate.
	for i := 1; i < len(r.MicroFailed); i++ {
		if r.MicroFailed[i] <= r.MicroFailed[i-1] {
			t.Fatal("µRB curve not monotone")
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	r := Figure6(quick)
	if r.MicroFailed >= r.RestartFailed {
		t.Fatalf("µRB rejuvenation failed %d ≥ restart %d", r.MicroFailed, r.RestartFailed)
	}
	if r.MicroRejuvenations == 0 {
		t.Fatal("no microrejuvenation episodes happened")
	}
	if r.RestartCount == 0 {
		t.Fatal("baseline performed no restart rejuvenations")
	}
	if !r.GoodputNeverZero {
		t.Fatal("good Taw hit zero during microrejuvenation")
	}
	t.Log("\n" + r.String())
}

func TestFigure3SharedClusterKeepsShape(t *testing.T) {
	// Figures 3/4 rerun on a cross-node SSM brick cluster: failover still
	// happens, and µRB still beats the full restart, but the shared store
	// means redirected sessions survive the node's recovery.
	r := Figure3(Options{Quick: true, ClusterStore: "ssm-cluster"})
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if row.MicroFailed > row.RestartFailed {
			t.Fatalf("%d nodes: µRB failed %d > restart %d", row.Nodes, row.MicroFailed, row.RestartFailed)
		}
		if row.RestartSessions == 0 {
			t.Fatalf("%d nodes: no sessions failed over under restart", row.Nodes)
		}
	}
	t.Log("\n" + r.String())
}

func TestTable5PerformanceShape(t *testing.T) {
	r := Table5(quick)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Throughput within a few percent across configs.
	base := r.Rows[0].Throughput
	for _, row := range r.Rows {
		if math.Abs(row.Throughput-base)/base > 0.05 {
			t.Fatalf("throughput varies >5%%: %v", r.Rows)
		}
	}
	// SSM latency 70-90% above FastS.
	fasts, ssm := r.Rows[1].MeanLatency, r.Rows[3].MeanLatency
	ratio := float64(ssm) / float64(fasts)
	if ratio < 1.4 || ratio > 2.2 {
		t.Fatalf("SSM/FastS latency ratio = %.2f, want ~1.7-1.9", ratio)
	}
	t.Log("\n" + r.String())
}

func TestTable6RetryMasking(t *testing.T) {
	r := Table6(quick)
	for _, row := range r.Rows {
		if row.Retry > row.NoRetry {
			t.Fatalf("%s: retry %f > no-retry %f", row.Component, row.Retry, row.NoRetry)
		}
		if row.DelayRetry > row.Retry {
			t.Fatalf("%s: delay+retry %f > retry %f", row.Component, row.DelayRetry, row.Retry)
		}
	}
	t.Log("\n" + r.String())
}

func TestSection61Budgets(t *testing.T) {
	fig1 := &Figure1Result{MicroAvgPerRecovery: 78, RestartAvgPerRecovery: 3917}
	fig3 := &Figure3Result{Rows: []Figure3Row{{Nodes: 2, MicroFailed: 162}}}
	r := Section61(quick, fig1, fig3)
	if r.BudgetRestart >= r.BudgetFailoverMicro || r.BudgetFailoverMicro >= r.BudgetNoFailoverMicro {
		t.Fatalf("budget ordering broken: %d / %d / %d",
			r.BudgetRestart, r.BudgetFailoverMicro, r.BudgetNoFailoverMicro)
	}
	if r.BudgetRestart < 5 || r.BudgetRestart > 50 {
		t.Fatalf("restart budget = %d, want ~13 (paper: 23)", r.BudgetRestart)
	}
	t.Log("\n" + r.String())
}

func TestAblationDelayTradeoff(t *testing.T) {
	r := AblationDelay(quick, "")
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// More grace must not increase failures (monotone non-increasing
	// within noise), and the effective recovery window must grow.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.FailedPerRB > first.FailedPerRB+0.5 {
		t.Fatalf("failures grew with delay: %.1f -> %.1f", first.FailedPerRB, last.FailedPerRB)
	}
	if last.EffectiveRecovery <= first.EffectiveRecovery {
		t.Fatal("effective recovery did not grow with delay")
	}
	t.Log("\n" + r.String())
}

// The extension experiments are scenario specs (scenarios/*.toml) run by
// internal/scenario over the Harness. The tests below drive the same
// Harness directly, so they can check what a scenario Outcome does not
// expose: per-brick state and per-node queues.

// unreadable counts sessions from ids the brick cluster can no longer read.
func unreadable(h *Harness, ids []string) int {
	lost := 0
	for _, id := range ids {
		if _, err := h.Bricks.Read(id); err != nil {
			lost++
		}
	}
	return lost
}

// TestBrickCrashZeroSessionLoss crashes the heaviest brick of a 4×3 W=2
// ring under load: no session is lost, no request fails, and the
// recovery manager restarts the brick and re-replicates into it.
func TestBrickCrashZeroSessionLoss(t *testing.T) {
	h, err := NewHarness(quick, HarnessConfig{Store: "ssm-cluster"})
	if err != nil {
		t.Fatal(err)
	}
	rm := recovery.NewManager(h.Kernel, h.Nodes[0], recovery.Config{Threshold: 3})
	rm.Bricks = h.Bricks
	plane := controlplane.New(controlplane.Config{Clock: h.Kernel.Now, Cluster: h.Bricks})
	plane.Use(rm)
	h.PumpPlane(plane, time.Second)
	em := h.NewEmulator(quick.clients(500), 0, workload.Config{})
	em.Start()
	h.Kernel.RunFor(quick.scale(3 * time.Minute))

	victim := h.Bricks.Bricks()[0]
	for _, b := range h.Bricks.Bricks() {
		if b.Len() > victim.Len() {
			victim = b
		}
	}
	crashAt, failBase := h.Kernel.Now(), h.Recorder.BadOps()
	ids, held := h.Bricks.SessionIDs(), victim.Len()
	if len(ids) == 0 || held == 0 {
		t.Fatalf("vacuous run: %d sessions, victim held %d entries", len(ids), held)
	}
	if _, err := h.Injectors[0].Inject(faults.Spec{Kind: faults.BrickCrash, Component: victim.Name()}); err != nil {
		t.Fatal(err)
	}
	if lost := unreadable(h, ids); lost != 0 {
		t.Fatalf("lost %d of %d sessions to a single brick crash, want 0", lost, len(ids))
	}

	h.Kernel.RunFor(quick.scale(3 * time.Minute))
	em.Stop()
	em.FlushActions()
	h.Kernel.RunFor(30 * time.Second)
	if delta := h.Recorder.BadOps() - failBase; delta != 0 {
		t.Fatalf("brick crash surfaced %d client-visible failures, want 0", delta)
	}
	if !victim.Up() || victim.Restarts() != 1 {
		t.Fatalf("victim up=%t after %d restarts, want up after exactly 1", victim.Up(), victim.Restarts())
	}
	if victim.Len() == 0 {
		t.Fatal("re-replication restored nothing into the restarted brick")
	}
	detected := time.Duration(-1)
	for _, a := range rm.Actions {
		if a.Target == "ssm-bricks" {
			detected = a.At
			break
		}
	}
	if detected <= crashAt {
		t.Fatalf("brick recovery at %v not after the crash at %v", detected, crashAt)
	}
}

// fleetArm runs one routing discipline on the overloaded fleet of
// scenarios/fleet.toml: three nodes on a shared ring, node0 degraded to
// half the workers, 3600 clients. It reports the harness and the deepest
// queue seen on the degraded node.
func fleetArm(t *testing.T, policy cluster.RoutingPolicy) (*Harness, int) {
	t.Helper()
	h, err := NewHarness(quick, HarnessConfig{
		Nodes: 3,
		Store: "ssm-cluster",
		Node:  cluster.NodeConfig{Workers: 4, CongestionScale: 200},
		PerNode: func(i int, cfg *cluster.NodeConfig) {
			if i == 0 {
				cfg.Workers = 2
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if policy != nil {
		h.LB.SetPolicy(policy)
	}
	maxQueue := 0
	h.PumpEvery(time.Second, func() { maxQueue = max(maxQueue, h.Nodes[0].QueueDepth()) })
	em := h.NewEmulator(3600, 0, workload.Config{StartStagger: time.Minute})
	em.Start()
	h.Kernel.RunFor(quick.scale(8 * time.Minute))
	em.Stop()
	em.FlushActions()
	h.Kernel.RunFor(time.Minute)
	return h, maxQueue
}

// TestFigureFleetRoutingBeatsRoundRobin: under the same overload,
// queue-aware routing plus shedding keeps the degraded node's queue and
// the fleet's tail far below static round-robin's, without losing
// sessions or goodput.
func TestFigureFleetRoutingBeatsRoundRobin(t *testing.T) {
	rr, rrQueue := fleetArm(t, nil)
	routed, routedQueue := fleetArm(t, &cluster.SheddingPolicy{Inner: cluster.LeastLoadedPolicy{}, QueueWatermark: 16})
	rrP99, routedP99 := rr.Recorder.Latencies().Quantile(0.99), routed.Recorder.Latencies().Quantile(0.99)
	if rrP99 < 2*routedP99 {
		t.Fatalf("p99: round-robin %v vs routed %v, want ≥2x separation", rrP99, routedP99)
	}
	if rrQueue < 4*routedQueue {
		t.Fatalf("degraded-node queue: rr %d vs routed %d, want ≥4x separation", rrQueue, routedQueue)
	}
	if routed.LB.Shed() == 0 {
		t.Fatal("shedding policy never shed under fleet-wide overload")
	}
	if n := rr.LB.Shed(); n != 0 {
		t.Fatalf("round-robin run shed %d requests", n)
	}
	for _, h := range []*Harness{rr, routed} {
		if lost := unreadable(h, h.Bricks.SessionIDs()); lost != 0 {
			t.Fatalf("overload lost %d sessions", lost)
		}
	}
	if g, b := routed.Recorder.GoodOps(), rr.Recorder.GoodOps(); g < b {
		t.Fatalf("goodput: routed %d < round-robin %d", g, b)
	}
	t.Logf("p99 %v vs %v; degraded queue %d vs %d; shed %d",
		rrP99, routedP99, rrQueue, routedQueue, routed.LB.Shed())
}

// TestHarnessNamesNodesPastNine: node names must stay distinct (and
// readable) once a fleet has ten or more nodes.
func TestHarnessNamesNodesPastNine(t *testing.T) {
	h, err := NewHarness(quick, HarnessConfig{Nodes: 11})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, n := range h.Nodes {
		if want := "node" + strconv.Itoa(i); n.Name != want {
			t.Fatalf("node %d named %q, want %q", i, n.Name, want)
		}
		if seen[n.Name] {
			t.Fatalf("duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
}

// TestHarnessRejectsSSMStore: the single-node SSM is ssm-cluster at one
// shard × one replica, so "ssm" is an unknown store that names the kinds.
func TestHarnessRejectsSSMStore(t *testing.T) {
	_, err := NewHarness(quick, HarnessConfig{Store: "ssm"})
	if err == nil || !strings.Contains(err.Error(), "fasts") || !strings.Contains(err.Error(), "ssm-cluster") {
		t.Fatalf("NewHarness(ssm) err = %v, want an unknown-store error naming fasts and ssm-cluster", err)
	}
}
