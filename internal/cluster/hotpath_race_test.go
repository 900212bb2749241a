package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// TestRouteHotPathRaces hammers the balancer's read-locked routing fast
// path concurrently with every writer that can touch its state: policy
// swaps, drain flips, affinity pruning via completion notes, failover
// stat resets, and the probe-side getters. Run with -race this is the
// regression net for the RWMutex split — it routes against idle nodes
// only (dispatch stays off the simulation kernel's thread) and asserts
// nothing beyond "no request is lost and no invariant-free answer comes
// back".
func TestRouteHotPathRaces(t *testing.T) {
	k := sim.NewKernel(77)
	nodes := newTestCluster(t, k, 4, func() session.Store { return session.NewFastS() }, NodeConfig{RequestTTL: time.Hour})
	lb := NewLoadBalancer(nodes)

	const (
		routers    = 4
		perRouter  = 2000
		flipEvery  = 50 * time.Microsecond
		flipBudget = 200
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Routers: a mix of login ops (affinity writes), sticky follow-ups
	// (affinity reads), and logouts (prune path via noteCompletion).
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perRouter; i++ {
				sid := fmt.Sprintf("r%d-s%d", r, i%17)
				login := &workload.Request{Op: ebid.Authenticate, SessionID: sid, Complete: func(workload.Response) {}}
				if _, err := lb.Route(login); err != nil {
					t.Errorf("login route: %v", err)
					return
				}
				browse := &workload.Request{Op: ebid.ViewItem, SessionID: sid}
				if n, err := lb.Route(browse); err != nil || n == nil {
					t.Errorf("browse route: n=%v err=%v", n, err)
					return
				}
				// Exercise the prune path the way Submit would.
				lb.noteCompletion(ebid.OpLogout, sid, workload.Response{})
			}
		}(r)
	}

	// Writer: policy swaps and drain flips while routing is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []RoutingPolicy{
			NewRoundRobin(),
			LeastLoadedPolicy{},
			&SheddingPolicy{Inner: NewRoundRobin(), QueueWatermark: 100},
		}
		for i := 0; i < flipBudget; i++ {
			lb.SetPolicy(policies[i%len(policies)])
			lb.SetDrain(nodes[i%len(nodes)].Name, i%2 == 0)
			if i%10 == 0 {
				lb.ResetFailoverStats()
			}
			time.Sleep(flipEvery)
		}
		// Leave every node undrained for the tail of the routing storm.
		for _, n := range nodes {
			lb.SetDrain(n.Name, false)
		}
		close(stop)
	}()

	// Probe: the control plane's view, concurrent with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = lb.FleetStats()
			_ = lb.PolicyName()
			_ = lb.AffinitySize()
			_ = lb.AffinityPruned()
			_ = lb.FailedOverRequests()
			_ = lb.SessionsFailedOver()
			_ = lb.Shed()
			_ = lb.SessionsOn(nodes[0])
			time.Sleep(10 * time.Microsecond)
		}
	}()

	wg.Wait()
}

// TestInvocationStatsInterceptorRaces drives the stats interceptor from
// many goroutines while readers snapshot components, totals, and latency
// quantiles — the sharded-recorder replacement for the old single-mutex
// accounting must hold up under -race.
func TestInvocationStatsInterceptorRaces(t *testing.T) {
	stats := metrics.NewInvocationStats(nil)
	ic := stats.Interceptor()
	handler := func(ctx context.Context, call *core.Call) (any, error) {
		time.Sleep(time.Microsecond)
		return "ok", nil
	}

	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				call := &core.Call{Op: "op", Component: fmt.Sprintf("comp-%d", i%5)}
				if _, err := ic(context.Background(), call, handler); err != nil {
					t.Errorf("interceptor: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			var served uint64
			for _, name := range stats.Components() {
				served += stats.Component(name).Served
			}
			if want := uint64(writers * 3000); served != want {
				t.Fatalf("served = %d, want %d (striped counters lost updates)", served, want)
			}
			total, failed := stats.Totals()
			if total != served || failed != 0 {
				t.Fatalf("totals = %d/%d, want %d/0", total, failed, served)
			}
			return
		default:
			for _, name := range stats.Components() {
				_ = stats.Component(name)
			}
			_, _ = stats.Totals()
		}
	}
}
