package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// newTestCluster builds n nodes over one database and one shared store
// builder (per-node stores when mk returns fresh instances).
func newTestCluster(t *testing.T, k *sim.Kernel, n int, mk func() session.Store, cfg NodeConfig) []*Node {
	t.Helper()
	d := db.New(nil)
	if err := ebid.LoadDataset(d, testDataset()); err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < n; i++ {
		c := cfg
		c.Name = fmt.Sprintf("n%d", i)
		c.Dataset = testDataset()
		node, err := NewNode(k, d, mk(), c)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	return nodes
}

// wedge occupies all of node's workers plus depth queued requests with
// hang-parked calls, so its queue depth and busy count are controlled.
func wedge(t *testing.T, k *sim.Kernel, n *Node, depth int) *faults.ActiveFault {
	t.Helper()
	inj := faults.NewInjector(n.Server(), nil, nil)
	f, err := inj.Inject(faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.Workers()+depth; i++ {
		n.Submit(&workload.Request{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 1},
			Complete: func(workload.Response) {}})
	}
	k.RunFor(100 * time.Millisecond)
	if n.Busy() != n.Workers() || n.QueueDepth() != depth {
		t.Fatalf("wedge: busy=%d queue=%d, want %d/%d", n.Busy(), n.QueueDepth(), n.Workers(), depth)
	}
	return f
}

func TestLeastLoadedRoutesAroundBacklog(t *testing.T) {
	k := sim.NewKernel(11)
	nodes := newTestCluster(t, k, 3, func() session.Store { return session.NewFastS() }, NodeConfig{RequestTTL: time.Hour})
	lb := NewLoadBalancer(nodes)
	lb.SetPolicy(LeastLoadedPolicy{})

	// node0 drowns in backlog; node2 carries a lighter one.
	wedge(t, k, nodes[0], 6)
	wedge(t, k, nodes[2], 2)

	for i := 0; i < 5; i++ {
		req := &workload.Request{Op: ebid.OpHome, SessionID: fmt.Sprintf("ll-%d", i)}
		n, err := lb.Route(req)
		if err != nil {
			t.Fatal(err)
		}
		if n != nodes[1] {
			t.Fatalf("least-loaded routed to %s, want n1 (the idle node)", n.Name)
		}
	}
	if lb.policy.Name() != "least-loaded" {
		t.Fatalf("policy name = %q", lb.policy.Name())
	}
}

func TestSheddingRejectsNewLoginsPastWatermark(t *testing.T) {
	k := sim.NewKernel(12)
	nodes := newTestCluster(t, k, 2, func() session.Store { return session.NewFastS() }, NodeConfig{Workers: 2, RequestTTL: time.Hour})
	lb := NewLoadBalancer(nodes)
	lb.SetPolicy(&SheddingPolicy{Inner: LeastLoadedPolicy{}, QueueWatermark: 2, RetryAfter: 3 * time.Second})

	// Establish a session while the fleet is healthy.
	var ok bool
	lb.Submit(&workload.Request{Op: ebid.Authenticate, SessionID: "held",
		Args:     &ebid.OpArgs{User: 1},
		Complete: func(r workload.Response) { ok = r.OK() }})
	k.RunFor(time.Second)
	if !ok {
		t.Fatal("login failed on a healthy fleet")
	}

	// Push every node past the watermark.
	wedge(t, k, nodes[0], 3)
	wedge(t, k, nodes[1], 3)

	// New logins are shed with Retry-After...
	_, err := lb.Route(&workload.Request{Op: ebid.Authenticate, SessionID: "newcomer"})
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overloaded login err = %v, want ShedError", err)
	}
	if shed.After != 3*time.Second {
		t.Fatalf("Retry-After = %v, want 3s", shed.After)
	}
	if !errors.Is(err, ErrServiceUnavailable) {
		t.Fatal("ShedError must unwrap to 503")
	}
	// ...but established sessions still route to their node,
	if n, err := lb.Route(&workload.Request{Op: ebid.AboutMe, SessionID: "held"}); err != nil || n == nil {
		t.Fatalf("established session was shed: %v", err)
	}
	// and non-login traffic is admitted through the inner policy.
	if _, err := lb.Route(&workload.Request{Op: ebid.BrowseCategories, SessionID: "anon"}); err != nil {
		t.Fatalf("non-login op was shed: %v", err)
	}
	if lb.Shed() != 1 {
		t.Fatalf("shed counter = %d, want 1", lb.Shed())
	}

	// A shed submit completes with the error and charges no node.
	var got error
	lb.Submit(&workload.Request{Op: ebid.OpHome, SessionID: "turned-away",
		Complete: func(r workload.Response) { got = r.Err }})
	if !errors.As(got, &shed) {
		t.Fatalf("shed submit err = %v", got)
	}
}

func TestPoliciesSurviveAllNodesUnhealthy(t *testing.T) {
	k := sim.NewKernel(13)
	nodes := newTestCluster(t, k, 2, func() session.Store { return session.NewFastS() }, NodeConfig{})
	for _, policy := range []RoutingPolicy{
		NewRoundRobin(),
		LeastLoadedPolicy{},
		&SheddingPolicy{Inner: NewRoundRobin(), QueueWatermark: 1},
	} {
		lb := NewLoadBalancer(nodes)
		lb.SetPolicy(policy)
		lb.SetDrain("n0", true)
		lb.SetDrain("n1", true)
		// No healthy candidates: the request must still reach a node (to
		// fail honestly with a transport error), never panic or shed —
		// the drained nodes' queues are empty, not past any watermark.
		n, err := lb.Route(&workload.Request{Op: ebid.OpHome, SessionID: "fallback"})
		if err != nil || n == nil {
			t.Fatalf("%s: fallback route = (%v, %v)", policy.Name(), n, err)
		}
	}
}

func TestAffinityPrunedOnLogoutAndLease(t *testing.T) {
	k := sim.NewKernel(14)
	// A shared SSM with a short lease: sessions lapse while idle.
	ssm := singleSSM(t, k.Now, 30*time.Second)
	nodes := newTestCluster(t, k, 2, func() session.Store { return ssm }, NodeConfig{})
	lb := NewLoadBalancer(nodes)

	login := func(sid string, user int64) {
		var ok bool
		lb.Submit(&workload.Request{Op: ebid.Authenticate, SessionID: sid,
			Args:     &ebid.OpArgs{User: user},
			Complete: func(r workload.Response) { ok = r.OK() }})
		k.RunFor(time.Second)
		if !ok {
			t.Fatalf("login %s failed", sid)
		}
	}

	login("s-out", 1)
	login("s-lapse", 2)
	if len(lb.affinity) != 2 {
		t.Fatalf("affinity = %d, want 2", len(lb.affinity))
	}

	// Logout deletes the stored session — and, with it, the entry.
	var ok bool
	lb.Submit(&workload.Request{Op: ebid.OpLogout, SessionID: "s-out",
		Complete: func(r workload.Response) { ok = r.OK() }})
	k.RunFor(time.Second)
	if !ok {
		t.Fatal("logout failed")
	}
	if len(lb.affinity) != 1 {
		t.Fatalf("affinity after logout = %d, want 1 (regression: entries leaked forever)", len(lb.affinity))
	}

	// The other session's lease expires; the next request observes the
	// loss and the entry dies with it.
	k.RunFor(2 * time.Minute)
	var lapseErr error
	lb.Submit(&workload.Request{Op: ebid.AboutMe, SessionID: "s-lapse",
		Complete: func(r workload.Response) { lapseErr = r.Err }})
	k.RunFor(time.Second)
	if lapseErr == nil {
		t.Fatal("lapsed session request succeeded")
	}
	if len(lb.affinity) != 0 {
		t.Fatalf("affinity after lease expiry = %d, want 0", len(lb.affinity))
	}
	if lb.pruned != 2 {
		t.Fatalf("pruned = %d, want 2", lb.pruned)
	}
}

// TestFleetControllerRollingReboot drives the full control-plane loop
// against real nodes: the plane's fleet probe samples the balancer, and
// the FleetController cycles the fleet through drain → node-scope
// reboot → restore on its rejuvenation schedule.
func TestFleetControllerRollingReboot(t *testing.T) {
	k := sim.NewKernel(15)
	nodes := newTestCluster(t, k, 2, func() session.Store { return session.NewFastS() }, NodeConfig{})
	lb := NewLoadBalancer(nodes)
	plane := controlplane.New(controlplane.Config{Clock: k.Now, Fleet: lb})
	fleet := controlplane.NewFleetController(lb, controlplane.FleetConfig{RejuvenateEvery: 30 * time.Second})
	plane.Use(fleet)
	var tick func()
	tick = func() {
		plane.Tick()
		k.Schedule(time.Second, tick)
	}
	k.Schedule(time.Second, tick)

	k.RunFor(3 * time.Minute)

	st := fleet.Status().(controlplane.FleetStatus)
	if len(st.Reboots) < 3 {
		t.Fatalf("rolling reboots = %d, want ≥3 over 3 min at a 30s cadence", len(st.Reboots))
	}
	// The rotation must alternate over both nodes.
	seen := map[string]bool{}
	for _, rb := range st.Reboots {
		if rb.Err != "" {
			t.Fatalf("reboot of %s failed: %s", rb.Node, rb.Err)
		}
		seen[rb.Node] = true
	}
	if !seen["n0"] || !seen["n1"] {
		t.Fatalf("rotation did not cover the fleet: %v", seen)
	}
	if fleet.Rejuvenations() == 0 {
		t.Fatal("no pass ever completed")
	}
	// Every pass restored its drain: the fleet ends fully routable.
	for _, n := range nodes {
		if n.Down() {
			t.Fatalf("%s left down after rejuvenation", n.Name)
		}
	}
	if got, err := lb.Route(&workload.Request{Op: ebid.OpHome, SessionID: "after"}); err != nil || got == nil {
		t.Fatalf("fleet not routable after rejuvenation: %v", err)
	}
	if st.RollingState == "idle" && st.RollingVictim != "" {
		t.Fatalf("idle state kept a victim: %+v", st)
	}
}

// TestSpillKeepsHomePin checks the balancer's spill rule: a session
// redirected off its drained node is not re-pinned to the spill target,
// so once the drain lifts its next request goes home. (The reverse
// proxy's router re-pins on spill instead.)
func TestSpillKeepsHomePin(t *testing.T) {
	k := sim.NewKernel(17)
	nodes := newTestCluster(t, k, 3, func() session.Store { return session.NewFastS() }, NodeConfig{})
	lb := NewLoadBalancer(nodes)

	route := func(op string) *Node {
		t.Helper()
		n, err := lb.Route(&workload.Request{Op: op, SessionID: "s"})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	home := route(ebid.Authenticate)
	lb.SetDrain(home.Name, true)
	if spill := route(ebid.AboutMe); spill == home {
		t.Fatalf("drained route went to the drained home node %s", home.Name)
	}
	lb.SetDrain(home.Name, false)
	if n := route(ebid.AboutMe); n != home {
		t.Fatalf("route after restore = %s, want home node %s (regression: the spill re-pinned the session)", n.Name, home.Name)
	}
	if lb.failedOver != 1 {
		t.Fatalf("failedOver = %d, want 1", lb.failedOver)
	}
}
