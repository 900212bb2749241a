package metrics

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ComponentStats is the per-component invocation accounting gathered by
// InvocationStats: outcomes and cumulative latency of every hop that
// entered the component.
type ComponentStats struct {
	// Served counts invocations dispatched into the component.
	Served uint64
	// Failed counts invocations that returned an error (including
	// injected faults and mid-microreboot RetryAfter rejections).
	Failed uint64
	// TotalLatency is the summed processing time of all invocations.
	TotalLatency time.Duration
}

// MeanLatency returns the average per-invocation latency.
func (s ComponentStats) MeanLatency() time.Duration {
	if s.Served == 0 {
		return 0
	}
	return s.TotalLatency / time.Duration(s.Served)
}

// recorderStripes is the number of counter stripes per component; a
// power of two so the stripe pick is a mask.
const recorderStripes = 8

// recorderStripe is one padded counter cell. The padding keeps stripes
// on separate cache lines so concurrent hops into the same component do
// not false-share.
type recorderStripe struct {
	served  atomic.Uint64
	failed  atomic.Uint64
	latency atomic.Int64
	_       [104]byte
}

// componentRecorder accumulates one component's counters across stripes.
// Reads sum the stripes; sums are exact (each observation lands in
// exactly one stripe).
type componentRecorder struct {
	stripes [recorderStripes]recorderStripe
}

func (r *componentRecorder) record(d time.Duration, err error) {
	// rand/v2's global generator is per-P and lock-free, so the stripe
	// pick itself never becomes the contention point.
	s := &r.stripes[rand.Uint64()&(recorderStripes-1)]
	s.served.Add(1)
	if err != nil {
		s.failed.Add(1)
	}
	if d > 0 {
		s.latency.Add(int64(d))
	}
}

func (r *componentRecorder) snapshot() ComponentStats {
	var cs ComponentStats
	for i := range r.stripes {
		s := &r.stripes[i]
		cs.Served += s.served.Load()
		cs.Failed += s.failed.Load()
		cs.TotalLatency += time.Duration(s.latency.Load())
	}
	return cs
}

// InvocationStats is latency/outcome accounting for the component
// server's invocation pipeline. It plugs into core.Server as an
// Interceptor — the single extension point for cross-cutting measurement
// — replacing the per-container counters the server used to maintain by
// hand. Recording is lock-free: per-component recorders live in a
// sync.Map and update striped atomic counters, so concurrent hops never
// serialize on a stats mutex.
type InvocationStats struct {
	now       func() time.Duration
	recorders sync.Map // component name → *componentRecorder
}

// NewInvocationStats builds invocation accounting driven by the given
// time source (virtual time in simulations); nil means wall-clock time.
func NewInvocationStats(now func() time.Duration) *InvocationStats {
	if now == nil {
		epoch := time.Now()
		now = func() time.Duration { return time.Since(epoch) }
	}
	return &InvocationStats{now: now}
}

func (s *InvocationStats) recorder(name string) *componentRecorder {
	if v, ok := s.recorders.Load(name); ok {
		return v.(*componentRecorder)
	}
	v, _ := s.recorders.LoadOrStore(name, &componentRecorder{})
	return v.(*componentRecorder)
}

// Interceptor returns the middleware to register on a core.Server. It
// observes every hop: the initial web-tier dispatch and each
// inter-component call.
func (s *InvocationStats) Interceptor() core.Interceptor {
	return func(ctx context.Context, call *core.Call, next core.Handler) (any, error) {
		start := s.now()
		res, err := next(ctx, call)
		s.recorder(call.Component).record(s.now()-start, err)
		return res, err
	}
}

// Component returns a snapshot of one component's accounting.
func (s *InvocationStats) Component(name string) ComponentStats {
	if v, ok := s.recorders.Load(name); ok {
		return v.(*componentRecorder).snapshot()
	}
	return ComponentStats{}
}

// Components returns the names of all components observed so far, sorted.
func (s *InvocationStats) Components() []string {
	var names []string
	s.recorders.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Totals returns the summed served/failed counts across all components.
func (s *InvocationStats) Totals() (served, failed uint64) {
	s.recorders.Range(func(_, v any) bool {
		cs := v.(*componentRecorder).snapshot()
		served += cs.Served
		failed += cs.Failed
		return true
	})
	return served, failed
}
