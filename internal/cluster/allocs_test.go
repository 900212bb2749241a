//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package cluster

import (
	"testing"

	"repro/internal/ebid"
	"repro/internal/sim"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// TestRouteAllocs is the allocation ceiling of the balancer's routing
// decision: a session-free request under every policy fills the
// balancer's reused candidate buffer, and an established session's
// request is one map probe. Neither allocates.
func TestRouteAllocs(t *testing.T) {
	nodes := newTestCluster(t, sim.NewKernel(1), 8, func() session.Store { return session.NewFastS() }, NodeConfig{})
	ceiling := func(what string, lb *LoadBalancer, req *workload.Request) {
		n := testing.AllocsPerRun(200, func() {
			if _, err := lb.Route(req); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("routing %s allocates %v times, want 0", what, n)
		}
	}
	for _, policy := range []RoutingPolicy{
		NewRoundRobin(),
		LeastLoadedPolicy{},
		&SheddingPolicy{Inner: LeastLoadedPolicy{}},
	} {
		lb := NewLoadBalancer(nodes)
		lb.SetPolicy(policy)
		ceiling("a session-free request under "+policy.Name(), lb, &workload.Request{Op: ebid.ViewItem})
	}

	lb := NewLoadBalancer(nodes)
	if _, err := lb.Route(&workload.Request{Op: ebid.OpHome, SessionID: "held"}); err != nil || len(lb.affinity) != 1 {
		t.Fatalf("login did not pin its session: %v", err)
	}
	ceiling("an established session", lb, &workload.Request{Op: ebid.AboutMe, SessionID: "held"})
}
