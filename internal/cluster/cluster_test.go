package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

func testDataset() ebid.DatasetConfig {
	return ebid.DatasetConfig{Users: 100, Items: 500, BidsPerItem: 5, Categories: 10, Regions: 10, OldItems: 20, Seed: 1}
}

func newTestNode(t *testing.T, k *sim.Kernel, cfg NodeConfig) *Node {
	t.Helper()
	d := db.New(nil)
	if err := ebid.LoadDataset(d, testDataset()); err != nil {
		t.Fatal(err)
	}
	cfg.Dataset = testDataset()
	n, err := NewNode(k, d, session.NewFastS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func emulatorConfig(clients int) workload.Config {
	ds := testDataset()
	return workload.Config{
		Clients:    clients,
		Users:      int64(ds.Users),
		Items:      int64(ds.Items),
		Categories: int64(ds.Categories),
		Regions:    int64(ds.Regions),
	}
}

func TestSteadyStateThroughputAndLatency(t *testing.T) {
	k := sim.NewKernel(1)
	n := newTestNode(t, k, NodeConfig{Name: "n0"})
	rec := metrics.NewRecorder(time.Second, 8*time.Second)
	em := workload.NewEmulator(k, n, rec, emulatorConfig(500))
	em.Start()
	k.RunFor(10 * time.Minute)
	em.Stop()
	em.FlushActions()

	rate := rec.GoodputOver(2*time.Minute, 10*time.Minute)
	if rate < 60 || rate > 85 {
		t.Fatalf("goodput = %.1f req/s, want ~72 (Table 5)", rate)
	}
	mean := rec.Latencies().Mean()
	if mean < 10*time.Millisecond || mean > 25*time.Millisecond {
		t.Fatalf("mean latency = %v, want ~15ms (Table 5)", mean)
	}
	if rec.BadOps() != 0 {
		t.Fatalf("fault-free run had %d bad ops", rec.BadOps())
	}
	t.Logf("goodput=%.1f req/s, mean latency=%v", rate, mean)
}

func TestMicrorebootFailsFewerRequestsThanRestart(t *testing.T) {
	run := func(useRestart bool) int64 {
		k := sim.NewKernel(2)
		n := newTestNode(t, k, NodeConfig{Name: "n0"})
		rec := metrics.NewRecorder(time.Second, 8*time.Second)
		em := workload.NewEmulator(k, n, rec, emulatorConfig(500))
		em.Start()
		k.RunFor(3 * time.Minute)
		if useRestart {
			if _, err := n.RebootScope(core.ScopeProcess); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := n.Microreboot(ebid.EntItem); err != nil {
				t.Fatal(err)
			}
		}
		k.RunFor(4 * time.Minute)
		em.Stop()
		em.FlushActions()
		k.RunFor(time.Minute)
		return rec.BadOps()
	}
	mrb := run(false)
	restart := run(true)
	if mrb == 0 {
		t.Fatal("µRB of EntityGroup failed zero requests; model too forgiving")
	}
	if restart < 10*mrb {
		t.Fatalf("restart failed %d vs µRB %d; want ≥10× (order of magnitude)", restart, mrb)
	}
	t.Logf("failed requests: µRB=%d, process restart=%d (%.0fx)", mrb, restart, float64(restart)/float64(mrb))
}

func TestProcessRestartLosesFastSSessions(t *testing.T) {
	k := sim.NewKernel(3)
	n := newTestNode(t, k, NodeConfig{Name: "n0"})
	// Establish a session directly.
	done := false
	n.Submit(&workload.Request{
		Op: ebid.Authenticate, SessionID: "s1",
		Args:     &ebid.OpArgs{User: 1},
		Complete: func(r workload.Response) { done = r.OK() },
	})
	k.RunFor(time.Second)
	if !done {
		t.Fatal("login failed")
	}
	if _, err := n.RebootScope(core.ScopeProcess); err != nil {
		t.Fatal(err)
	}
	// While down: connection refused.
	var refused error
	n.Submit(&workload.Request{Op: ebid.OpHome, SessionID: "s1",
		Complete: func(r workload.Response) { refused = r.Err }})
	k.RunFor(5 * time.Second)
	if !errors.Is(refused, ErrConnectionRefused) {
		t.Fatalf("during restart err = %v, want connection refused", refused)
	}
	k.RunFor(30 * time.Second) // restart completes (19.083s)
	var after error
	n.Submit(&workload.Request{Op: ebid.AboutMe, SessionID: "s1",
		Complete: func(r workload.Response) { after = r.Err }})
	k.RunFor(5 * time.Second)
	if after == nil {
		t.Fatal("session survived a process restart with FastS")
	}
}

// TestProcessRestartResetsInAdmissionOrder: a process-scope reboot fails
// every in-service request, and must do so in the order the node
// admitted them — completions feed the emulator and the kernel's random
// stream, so any other order makes a seeded run irreproducible.
func TestProcessRestartResetsInAdmissionOrder(t *testing.T) {
	const inFlight = 32
	k := sim.NewKernel(3)
	n := newTestNode(t, k, NodeConfig{Name: "n0", Workers: inFlight})
	var order []int
	for i := 0; i < inFlight; i++ {
		n.Submit(&workload.Request{ClientID: i, Op: ebid.OpHome,
			Complete: func(workload.Response) { order = append(order, i) }})
	}
	if n.Busy() != inFlight {
		t.Fatalf("busy = %d, want %d requests in service", n.Busy(), inFlight)
	}
	if _, err := n.RebootScope(core.ScopeProcess); err != nil {
		t.Fatal(err)
	}
	if len(order) != inFlight {
		t.Fatalf("reset completed %d requests, want %d", len(order), inFlight)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("reset order %v, want admission order 0..%d", order, inFlight-1)
		}
	}
}

func TestRetry503MasksMicroreboot(t *testing.T) {
	count := func(retry bool) (failed int64, retried int64) {
		k := sim.NewKernel(4)
		n := newTestNode(t, k, NodeConfig{Name: "n0", Retry503: retry})
		rec := metrics.NewRecorder(time.Second, 8*time.Second)
		em := workload.NewEmulator(k, n, rec, emulatorConfig(500))
		em.Start()
		k.RunFor(2 * time.Minute)
		// Ten spaced µRBs so the recovery windows see real traffic.
		for i := 0; i < 10; i++ {
			if _, err := n.Microreboot(ebid.BrowseCategories); err != nil {
				t.Fatal(err)
			}
			k.RunFor(10 * time.Second)
		}
		em.Stop()
		em.FlushActions()
		_, _, r, _ := n.Stats()
		return rec.BadOps(), r
	}
	noRetryFailed, _ := count(false)
	retryFailed, retried := count(true)
	if retried == 0 {
		t.Fatal("no transparent retries happened")
	}
	if retryFailed >= noRetryFailed {
		t.Fatalf("retry did not reduce failures: %d vs %d", retryFailed, noRetryFailed)
	}
	t.Logf("failed: no-retry=%d, retry=%d (retried %d calls)", noRetryFailed, retryFailed, retried)
}

func TestHungRequestsOccupyWorkersUntilKilled(t *testing.T) {
	k := sim.NewKernel(5)
	n := newTestNode(t, k, NodeConfig{Name: "n0", Workers: 2, RequestTTL: time.Hour})
	// Wedge both workers via an injected infinite loop: the fault hook
	// runs as an interceptor on the node's server.
	inj := faults.NewInjector(n.Server(), nil, nil)
	wedge, err := inj.Inject(faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem})
	if err != nil {
		t.Fatal(err)
	}
	var results []error
	for i := 0; i < 2; i++ {
		n.Submit(&workload.Request{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 1},
			Complete: func(r workload.Response) { results = append(results, r.Err) }})
	}
	k.RunFor(time.Second)
	if n.Busy() != 2 {
		t.Fatalf("busy = %d, want 2 wedged workers", n.Busy())
	}
	// A third request queues behind the wedged workers.
	n.Submit(&workload.Request{Op: ebid.OpHome,
		Complete: func(r workload.Response) { results = append(results, r.Err) }})
	k.RunFor(10 * time.Second)
	if len(results) != 0 {
		t.Fatalf("requests completed while wedged: %v", results)
	}
	// µRB the hung component: shepherds killed, workers freed, queue drains.
	wedge.Deactivate()
	if _, err := n.Microreboot(ebid.ViewItem); err != nil {
		t.Fatal(err)
	}
	k.RunFor(5 * time.Second)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 (2 killed + 1 drained)", len(results))
	}
	if results[0] == nil || results[1] == nil {
		t.Fatal("killed requests must fail")
	}
	if results[2] != nil {
		t.Fatalf("queued request failed after recovery: %v", results[2])
	}
}

func TestRequestTTLPurgesStuckRequests(t *testing.T) {
	k := sim.NewKernel(6)
	n := newTestNode(t, k, NodeConfig{Name: "n0", Workers: 1, RequestTTL: 10 * time.Second})
	inj := faults.NewInjector(n.Server(), nil, nil)
	if _, err := inj.Inject(faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem}); err != nil {
		t.Fatal(err)
	}
	var got error
	fired := false
	n.Submit(&workload.Request{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 1},
		Complete: func(r workload.Response) { got, fired = r.Err, true }})
	k.RunFor(11 * time.Second)
	if !fired || !errors.Is(got, ErrRequestTimeout) {
		t.Fatalf("TTL purge: fired=%v err=%v", fired, got)
	}
	_, _, _, purged := n.Stats()
	if purged != 1 {
		t.Fatalf("purged = %d, want 1", purged)
	}
}

// sessionsOn counts sessions whose affinity points at n.
func sessionsOn(lb *LoadBalancer, n *Node) int {
	count := 0
	for _, node := range lb.affinity {
		if node == n {
			count++
		}
	}
	return count
}

func TestLoadBalancerAffinityAndFailover(t *testing.T) {
	k := sim.NewKernel(7)
	d := db.New(nil)
	if err := ebid.LoadDataset(d, testDataset()); err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 2; i++ {
		n, err := NewNode(k, d, session.NewFastS(), NodeConfig{Name: fmt.Sprintf("n%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	lb := NewLoadBalancer(nodes)

	// Establish sessions: affinity must pin them.
	ok := 0
	for i := 0; i < 10; i++ {
		sid := fmt.Sprintf("s%d", i)
		lb.Submit(&workload.Request{Op: ebid.Authenticate, SessionID: sid,
			Args: &ebid.OpArgs{User: int64(i + 1)},
			Complete: func(r workload.Response) {
				if r.OK() {
					ok++
				}
			}})
	}
	k.RunFor(time.Second)
	if ok != 10 {
		t.Fatalf("logins ok = %d, want 10", ok)
	}
	if sessionsOn(lb, nodes[0])+sessionsOn(lb, nodes[1]) != 10 {
		t.Fatal("affinity lost sessions")
	}
	if sessionsOn(lb, nodes[0]) == 0 || sessionsOn(lb, nodes[1]) == 0 {
		t.Fatal("round-robin did not spread sessions")
	}

	// Non-login follow-ups stick to the affinity node (FastS works).
	ok = 0
	for i := 0; i < 10; i++ {
		sid := fmt.Sprintf("s%d", i)
		lb.Submit(&workload.Request{Op: ebid.AboutMe, SessionID: sid,
			Complete: func(r workload.Response) {
				if r.OK() {
					ok++
				}
			}})
	}
	k.RunFor(time.Second)
	if ok != 10 {
		t.Fatalf("affinity follow-ups ok = %d, want 10", ok)
	}

	// Drain node 0: its sessions get redirected and fail (FastS is
	// node-local), while node 1's sessions keep working. The failed
	// sessions' affinity entries are pruned as their loss is observed, so
	// count node 0's sessions before draining.
	n0Sessions := sessionsOn(lb, nodes[0])
	lb.SetDrain(nodes[0].Name, true)
	var failed, succeeded int
	for i := 0; i < 10; i++ {
		sid := fmt.Sprintf("s%d", i)
		lb.Submit(&workload.Request{Op: ebid.AboutMe, SessionID: sid,
			Complete: func(r workload.Response) {
				if r.OK() {
					succeeded++
				} else {
					failed++
				}
			}})
	}
	k.RunFor(time.Second)
	if failed != n0Sessions {
		t.Fatalf("failed = %d, want %d (node 0's redirected sessions)", failed, n0Sessions)
	}
	if succeeded != 10-n0Sessions {
		t.Fatalf("succeeded = %d, want %d", succeeded, 10-n0Sessions)
	}
	if lb.SessionsFailedOver() != n0Sessions {
		t.Fatalf("SessionsFailedOver = %d, want %d", lb.SessionsFailedOver(), n0Sessions)
	}
	lb.SetDrain(nodes[0].Name, false)
	lb.ResetFailoverStats()
	if lb.failedOver != 0 {
		t.Fatal("stats not reset")
	}
}

// singleSSM is the single-node SSM: a brick cluster of one shard × one
// replica, W = 1.
func singleSSM(t *testing.T, now func() time.Duration, ttl time.Duration) *session.SSMCluster {
	t.Helper()
	cl, err := session.NewSSMCluster(session.ClusterConfig{Shards: 1, Replicas: 1, WriteQuorum: 1, LeaseTTL: ttl, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestSharedSSMSurvivesFailover(t *testing.T) {
	k := sim.NewKernel(8)
	d := db.New(nil)
	if err := ebid.LoadDataset(d, testDataset()); err != nil {
		t.Fatal(err)
	}
	ssm := singleSSM(t, k.Now, time.Hour)
	var nodes []*Node
	for i := 0; i < 2; i++ {
		n, err := NewNode(k, d, ssm, NodeConfig{Name: fmt.Sprintf("n%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	lb := NewLoadBalancer(nodes)
	okCount := 0
	lb.Submit(&workload.Request{Op: ebid.Authenticate, SessionID: "s0",
		Args: &ebid.OpArgs{User: 1},
		Complete: func(r workload.Response) {
			if r.OK() {
				okCount++
			}
		}})
	k.RunFor(time.Second)
	home := lb.affinity["s0"]
	lb.SetDrain(home.Name, true)
	lb.Submit(&workload.Request{Op: ebid.AboutMe, SessionID: "s0",
		Complete: func(r workload.Response) {
			if r.OK() {
				okCount++
			}
		}})
	k.RunFor(time.Second)
	if okCount != 2 {
		t.Fatalf("ok = %d, want 2: SSM-backed failover must preserve the session", okCount)
	}
}

func TestSSMLatencyHigherThanFastS(t *testing.T) {
	meanFor := func(store session.Store) time.Duration {
		k := sim.NewKernel(9)
		d := db.New(nil)
		if err := ebid.LoadDataset(d, testDataset()); err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(k, d, store, NodeConfig{Name: "n"})
		if err != nil {
			t.Fatal(err)
		}
		rec := metrics.NewRecorder(time.Second, 8*time.Second)
		em := workload.NewEmulator(k, n, rec, emulatorConfig(200))
		em.Start()
		k.RunFor(5 * time.Minute)
		em.Stop()
		em.FlushActions()
		return rec.Latencies().Mean()
	}
	fasts := meanFor(session.NewFastS())
	ssm := meanFor(singleSSM(t, nil, time.Hour))
	if ssm <= fasts+5*time.Millisecond {
		t.Fatalf("SSM latency %v not appreciably above FastS %v", ssm, fasts)
	}
	t.Logf("mean latency: FastS=%v SSM=%v", fasts, ssm)
}

func TestMicrorebootWithDelayDrainsInFlight(t *testing.T) {
	k := sim.NewKernel(10)
	n := newTestNode(t, k, NodeConfig{Name: "n0"})
	if err := n.MicrorebootWithDelay(200*time.Millisecond, ebid.ViewItem); err != nil {
		t.Fatal(err)
	}
	// During the grace window the sentinel is already bound.
	var got error
	n.Submit(&workload.Request{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 1},
		Complete: func(r workload.Response) { got = r.Err }})
	k.RunFor(100 * time.Millisecond)
	if got == nil || !errors.Is(got, ErrServiceUnavailable) {
		t.Fatalf("during grace window err = %v, want 503", got)
	}
	k.RunFor(2 * time.Second)
	var after error
	fired := false
	n.Submit(&workload.Request{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 1},
		Complete: func(r workload.Response) { after, fired = r.Err, true }})
	k.RunFor(time.Second)
	if !fired || after != nil {
		t.Fatalf("after recovery: fired=%v err=%v", fired, after)
	}
}
