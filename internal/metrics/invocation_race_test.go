package metrics_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

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
