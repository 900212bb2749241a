// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as a testing.B benchmark. Each bench
// runs the corresponding experiment end to end on the simulation
// substrate and reports domain-specific metrics alongside wall time:
// failed requests per recovery, recovery milliseconds, goodput, and so
// on. Run with:
//
//	go test -bench=. -benchmem
//
// The benches use quick-mode experiment scaling; cmd/experiments runs the
// full-scale versions and prints the complete paper-style tables.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

var benchOpts = experiments.Options{Quick: true, Seed: 42}

// BenchmarkTable1_WorkloadMix regenerates the client workload mix table.
func BenchmarkTable1_WorkloadMix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchOpts)
		b.ReportMetric(float64(r.Total)/float64(b.N), "requests")
	}
}

// BenchmarkTable2_FaultRecoveryMatrix regenerates the worst-case recovery
// matrix: all 26 fault rows, each driven through the recursive policy.
func BenchmarkTable2_FaultRecoveryMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchOpts)
		match := 0
		for _, row := range r.Rows {
			if row.Match {
				match++
			}
		}
		b.ReportMetric(float64(match), "rows-matching-paper")
	}
}

// BenchmarkTable3_RecoveryTimes measures per-component µRB times under
// load (10 trials per component).
func BenchmarkTable3_RecoveryTimes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchOpts)
		var ejbTotal time.Duration
		var n int
		for _, row := range r.Rows {
			if row.Component != "WAR" && row.Component != "eBid" && row.Component != "JVM restart" {
				ejbTotal += row.Total
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(float64(ejbTotal.Milliseconds())/float64(n), "avg-EJB-µRB-ms")
		}
	}
}

// BenchmarkFigure1_TawTimeline runs the 3-fault Taw comparison and
// reports the failed-request ratio (paper: ~50x).
func BenchmarkFigure1_TawTimeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1(benchOpts)
		if r.MicroFailedReqs > 0 {
			b.ReportMetric(float64(r.RestartFailedReqs)/float64(r.MicroFailedReqs), "restart/µRB-failed-ratio")
		}
		b.ReportMetric(r.MicroAvgPerRecovery, "failed-per-µRB")
	}
}

// BenchmarkFigure2_FunctionalDisruption measures per-group disruption
// around one recovery event.
func BenchmarkFigure2_FunctionalDisruption(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchOpts)
		b.ReportMetric(r.RestartTotalDown.Seconds(), "restart-total-outage-s")
		b.ReportMetric(r.MicroTotalDown.Seconds(), "µRB-total-outage-s")
	}
}

// BenchmarkFigure3_FailoverNormalLoad runs the cluster failover
// experiment across cluster sizes.
func BenchmarkFigure3_FailoverNormalLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(benchOpts)
		if len(r.Rows) > 0 {
			b.ReportMetric(float64(r.Rows[0].MicroFailed), "µRB-failed@2nodes")
			b.ReportMetric(float64(r.Rows[0].RestartFailed), "restart-failed@2nodes")
		}
	}
}

// BenchmarkFigure4_FailoverDoubledLoad runs the doubled-load failover
// experiment (response-time series).
func BenchmarkFigure4_FailoverDoubledLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(benchOpts)
		if len(r.Rows) > 0 {
			b.ReportMetric(r.Rows[0].RestartPeak.Seconds(), "restart-peak-latency-s@2nodes")
			b.ReportMetric(r.Rows[0].MicroPeak.Seconds(), "µRB-peak-latency-s@2nodes")
		}
	}
}

// BenchmarkTable4_Over8s counts requests exceeding the 8-second
// abandonment threshold during doubled-load failover.
func BenchmarkTable4_Over8s(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(benchOpts)
		if len(r.Rows) > 0 {
			b.ReportMetric(float64(r.Rows[0].RestartOver8s), "restart-over8s@2nodes")
			b.ReportMetric(float64(r.Rows[0].MicroOver8s), "µRB-over8s@2nodes")
		}
	}
}

// BenchmarkTable5_PerformanceImpact measures fault-free throughput and
// latency across the four configurations.
func BenchmarkTable5_PerformanceImpact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(benchOpts)
		b.ReportMetric(r.Rows[1].Throughput, "µRB+FastS-req/s")
		b.ReportMetric(float64(r.Rows[1].MeanLatency.Microseconds())/1000, "µRB+FastS-latency-ms")
		b.ReportMetric(float64(r.Rows[3].MeanLatency.Microseconds())/1000, "µRB+SSM-latency-ms")
	}
}

// BenchmarkTable6_RetryMasking measures HTTP/1.1 Retry-After masking of
// microreboots.
func BenchmarkTable6_RetryMasking(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Table6(benchOpts)
		var noRetry, retry float64
		for _, row := range r.Rows {
			noRetry += row.NoRetry
			retry += row.Retry
		}
		b.ReportMetric(noRetry/float64(len(r.Rows)), "failed-no-retry")
		b.ReportMetric(retry/float64(len(r.Rows)), "failed-with-retry")
	}
}

// BenchmarkFigure5_DetectionTime sweeps the failure-detection delay.
func BenchmarkFigure5_DetectionTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5Left(benchOpts)
		b.ReportMetric(r.CrossoverTdet.Seconds(), "crossover-Tdet-s")
	}
}

// BenchmarkFigure5_FalsePositives computes the false-positive tolerance
// curve from measured per-recovery costs.
func BenchmarkFigure5_FalsePositives(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5Right(78, 3917)
		b.ReportMetric(r.ToleratedFPRate*100, "tolerated-FP-%")
	}
}

// BenchmarkFigure6_Microrejuvenation runs the leak + rejuvenation
// experiment in both modes.
func BenchmarkFigure6_Microrejuvenation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure6(benchOpts)
		b.ReportMetric(float64(r.MicroFailed), "µRB-rejuv-failed")
		b.ReportMetric(float64(r.RestartFailed), "restart-rejuv-failed")
	}
}

// BenchmarkSection61_FailoverSchemes compares failover schemes and the
// six-nines budgets.
func BenchmarkSection61_FailoverSchemes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig1 := &experiments.Figure1Result{MicroAvgPerRecovery: 78, RestartAvgPerRecovery: 3917}
		fig3 := experiments.Figure3(benchOpts)
		r := experiments.Section61(benchOpts, fig1, fig3)
		b.ReportMetric(float64(r.BudgetNoFailoverMicro), "six-nines-budget-µRB")
		b.ReportMetric(float64(r.BudgetRestart), "six-nines-budget-restart")
	}
}

// BenchmarkAblation_SentinelDelay sweeps the sentinel-to-crash grace
// delay — the tradeoff the paper measured at one point (200 ms) but left
// unanalyzed.
func BenchmarkAblation_SentinelDelay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationDelay(benchOpts, "")
		b.ReportMetric(float64(r.BestDelay.Milliseconds()), "best-delay-ms")
		b.ReportMetric(r.Rows[0].FailedPerRB, "failed-no-delay")
	}
}

// ----------------------------------------------------- store micro-benches

// singleLockStore is the pre-stripe FastS design — one RWMutex guarding
// one map — kept here as the baseline the striped FastS is measured
// against in the parallel benchmarks.
type singleLockStore struct {
	mu       sync.RWMutex
	sessions map[string]*session.Session
}

func newSingleLockStore() *singleLockStore {
	return &singleLockStore{sessions: map[string]*session.Session{}}
}

func (s *singleLockStore) Name() string                 { return "SingleLock" }
func (s *singleLockStore) SurvivesProcessRestart() bool { return false }

func (s *singleLockStore) Read(id string) (*session.Session, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, session.ErrNotFound
	}
	return sess.Clone(), nil
}

func (s *singleLockStore) Write(sess *session.Session) error {
	if sess == nil || sess.ID == "" {
		return errors.New("bench: Write requires an ID")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[sess.ID] = sess.Clone()
	return nil
}

func (s *singleLockStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, id)
	return nil
}

func (s *singleLockStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

var _ session.Store = (*singleLockStore)(nil)

// benchStores builds one instance of every store under test.
func benchStores(b *testing.B) map[string]session.Store {
	b.Helper()
	cl, err := session.NewSSMCluster(session.ClusterConfig{Shards: 4, Replicas: 3, WriteQuorum: 2})
	if err != nil {
		b.Fatal(err)
	}
	return map[string]session.Store{
		"SingleLock": newSingleLockStore(),
		"FastS":      session.NewFastS(),
		"SSMCluster": cl,
	}
}

// benchStoreOrder fixes sub-benchmark ordering (maps iterate randomly).
var benchStoreOrder = []string{"SingleLock", "FastS", "SSMCluster"}

const benchSessionPop = 1024

// benchIDs precomputes the session-id table so read benchmarks measure
// the store, not fmt.Sprintf.
var benchIDs = func() [benchSessionPop]string {
	var ids [benchSessionPop]string
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%d", i)
	}
	return ids
}()

func benchID(i int) string { return benchIDs[i%benchSessionPop] }

func benchSession(i int) *session.Session {
	return &session.Session{
		ID:     benchID(i),
		UserID: int64(i + 1),
		Data:   map[string]string{"cart": "open", "step": "2"},
		Items:  []int64{7, 9},
	}
}

func populate(b *testing.B, s session.Store) {
	b.Helper()
	for i := 0; i < benchSessionPop; i++ {
		if err := s.Write(benchSession(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSequentialWrite measures single-goroutine write latency
// per store backend.
func BenchmarkStoreSequentialWrite(b *testing.B) {
	stores := benchStores(b)
	for _, name := range benchStoreOrder {
		s := stores[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Write(benchSession(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSequentialRead measures single-goroutine read latency.
func BenchmarkStoreSequentialRead(b *testing.B) {
	stores := benchStores(b)
	for _, name := range benchStoreOrder {
		s := stores[name]
		populate(b, s)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Read(benchID(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreParallelRead is the contention benchmark: many readers on
// a shared store. On multi-core hardware the striped FastS beats the
// single-lock baseline here — readers of different sessions no longer
// serialize on one RWMutex cache line (on a single-core runner the two
// are equivalent, since nothing actually contends).
func BenchmarkStoreParallelRead(b *testing.B) {
	stores := benchStores(b)
	for _, name := range benchStoreOrder {
		s := stores[name]
		populate(b, s)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var off int64
			b.RunParallel(func(pb *testing.PB) {
				// Offset each goroutine so readers spread across the key
				// space instead of marching in lockstep.
				i := int(atomic.AddInt64(&off, 251))
				for pb.Next() {
					i++
					if _, err := s.Read(benchID(i)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreParallelWrite measures write throughput under contention.
func BenchmarkStoreParallelWrite(b *testing.B) {
	stores := benchStores(b)
	for _, name := range benchStoreOrder {
		s := stores[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var off int64
			b.RunParallel(func(pb *testing.PB) {
				i := int(atomic.AddInt64(&off, 251))
				for pb.Next() {
					i++
					if err := s.Write(benchSession(i)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// ---------------------------------------------------------- LB routing

// benchLB builds an 8-node cluster behind a balancer for routing
// micro-benches (the routing decision only — nothing is submitted).
func benchLB(b *testing.B, policy cluster.RoutingPolicy) *cluster.LoadBalancer {
	b.Helper()
	k := sim.NewKernel(1)
	d := db.New(nil)
	ds := ebid.DatasetConfig{Users: 50, Items: 100, BidsPerItem: 2, Categories: 5, Regions: 5, OldItems: 10}
	if err := ebid.LoadDataset(d, ds); err != nil {
		b.Fatal(err)
	}
	nodes := make([]*cluster.Node, 0, 8)
	for i := 0; i < 8; i++ {
		n, err := cluster.NewNode(k, d, session.NewFastS(), cluster.NodeConfig{
			Name: fmt.Sprintf("bench-n%d", i), Dataset: ds,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	lb := cluster.NewLoadBalancer(nodes)
	if policy != nil {
		lb.SetPolicy(policy)
	}
	return lb
}

// BenchmarkLBRouteNew measures the per-request routing decision for a
// session-free request (no affinity hit) under each policy over 8
// nodes. benchdiff tracks the policies' relative cost.
func BenchmarkLBRouteNew(b *testing.B) {
	policies := []struct {
		name   string
		policy cluster.RoutingPolicy
	}{
		{"RoundRobin", nil},
		{"LeastLoaded", cluster.LeastLoadedPolicy{}},
		{"ShedLeastLoaded", &cluster.SheddingPolicy{Inner: cluster.LeastLoadedPolicy{}}},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			lb := benchLB(b, p.policy)
			req := &workload.Request{Op: ebid.ViewItem, SessionID: "bench-anon"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lb.Route(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLBRouteAffinity measures the sticky-session fast path.
func BenchmarkLBRouteAffinity(b *testing.B) {
	lb := benchLB(b, nil)
	for i := 0; i < 64; i++ {
		if _, err := lb.Route(&workload.Request{Op: ebid.OpHome, SessionID: fmt.Sprintf("bench-s%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
	req := &workload.Request{Op: ebid.AboutMe, SessionID: "bench-s7"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Route(req); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------- invoke hot path

// benchApp builds a loaded eBid app with one authenticated session for
// the end-to-end invoke benchmarks.
func benchApp(b *testing.B) *ebid.App {
	b.Helper()
	d := db.New(nil)
	ds := ebid.DatasetConfig{Users: 50, Items: 100, BidsPerItem: 2, Categories: 5, Regions: 5, OldItems: 10}
	if err := ebid.LoadDataset(d, ds); err != nil {
		b.Fatal(err)
	}
	app, err := ebid.New(d, session.NewFastS(), nil)
	if err != nil {
		b.Fatal(err)
	}
	auth := &core.Call{Op: ebid.Authenticate, SessionID: "bench-sess", Args: &ebid.OpArgs{User: 1}}
	if _, err := app.Execute(context.Background(), auth); err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkInvokeOpsPerSec measures the end-to-end invocation pipeline —
// WAR dispatch, interceptors, shepherd tracking, session/entity hops —
// at steady state, with no faults injected. This is the Table 5 question
// asked of the implementation itself: what does the microreboot plumbing
// cost per request?
func BenchmarkInvokeOpsPerSec(b *testing.B) {
	app := benchApp(b)
	ctx := context.Background()
	b.Run("ViewItem", func(b *testing.B) {
		args := &ebid.OpArgs{Item: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call := core.NewCall(ebid.ViewItem, "", args, 0)
			if _, err := app.Execute(ctx, call); err != nil {
				b.Fatal(err)
			}
			call.Release()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
	b.Run("AboutMe", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call := core.NewCall(ebid.AboutMe, "bench-sess", nil, 0)
			if _, err := app.Execute(ctx, call); err != nil {
				b.Fatal(err)
			}
			call.Release()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
	b.Run("ViewItemParallel", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			args := &ebid.OpArgs{Item: 1}
			for pb.Next() {
				call := core.NewCall(ebid.ViewItem, "", args, 0)
				if _, err := app.Execute(ctx, call); err != nil {
					b.Error(err)
					return
				}
				call.Release()
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
}

// benchAppSessions builds a loaded eBid app with n authenticated
// sessions ("bench-p0" … "bench-pN-1") so parallel benchmarks can spread
// goroutines across distinct sessions, the way production traffic looks.
func benchAppSessions(b *testing.B, n int) *ebid.App {
	b.Helper()
	d := db.New(nil)
	ds := ebid.DatasetConfig{Users: 50, Items: 100, BidsPerItem: 2, Categories: 5, Regions: 5, OldItems: 10}
	if err := ebid.LoadDataset(d, ds); err != nil {
		b.Fatal(err)
	}
	app, err := ebid.New(d, session.NewFastS(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		auth := &core.Call{
			Op:        ebid.Authenticate,
			SessionID: fmt.Sprintf("bench-p%d", i),
			Args:      &ebid.OpArgs{User: int64(i%50 + 1)},
		}
		if _, err := app.Execute(context.Background(), auth); err != nil {
			b.Fatal(err)
		}
	}
	return app
}

// benchReadHeavyOp issues the i-th op of the read-dominated mix —
// roughly the eBid browse/view traffic shape: item views dominate, with
// user views, bid histories, and the session-backed AboutMe mixed in.
func benchReadHeavyOp(ctx context.Context, b *testing.B, app *ebid.App, sid string, args *ebid.OpArgs, i int) bool {
	*args = ebid.OpArgs{}
	var op string
	switch i % 8 {
	case 0, 1, 2, 3:
		op = ebid.ViewItem
		args.Item = int64(i%100 + 1)
	case 4, 5:
		op = ebid.ViewUserInfo
		args.User = int64(i%50 + 1)
	case 6:
		op = ebid.ViewBidHistory
		args.Item = int64(i%100 + 1)
	default:
		op = ebid.AboutMe
	}
	call := core.NewCall(op, sid, args, 0)
	_, err := app.Execute(ctx, call)
	call.Release()
	if err != nil {
		b.Error(err)
		return false
	}
	return true
}

// BenchmarkInvokeOpsPerSecParallel runs the invoke pipeline the way
// production traffic looks: many goroutines, distinct sessions, a
// read-dominated mix. ReadHeavySerial is the single-goroutine baseline
// for the same mix, so the ops/s ratio between the two sub-benches is the
// read-path concurrency win (on a multi-core runner; a single-core
// container shows ~1x by construction). Mixed90 adds ~10% writing ops,
// whose commits take the store's exclusive lock; write conflicts on the
// id-sequence row are fail-fast retries in the crash-only design, and
// count as work here, not failures.
func BenchmarkInvokeOpsPerSecParallel(b *testing.B) {
	const sessions = 64
	ctx := context.Background()
	b.Run("ReadHeavySerial", func(b *testing.B) {
		app := benchAppSessions(b, sessions)
		args := &ebid.OpArgs{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !benchReadHeavyOp(ctx, b, app, "bench-p0", args, i) {
				return
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
	b.Run("ReadHeavy", func(b *testing.B) {
		app := benchAppSessions(b, sessions)
		var gid int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			g := atomic.AddInt64(&gid, 1)
			sid := fmt.Sprintf("bench-p%d", g%sessions)
			args := &ebid.OpArgs{}
			// Offset per goroutine so the mix phases don't march in
			// lockstep across goroutines.
			i := int(g * 251)
			for pb.Next() {
				i++
				if !benchReadHeavyOp(ctx, b, app, sid, args, i) {
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
	b.Run("Mixed90", func(b *testing.B) {
		app := benchAppSessions(b, sessions)
		var gid int64
		var conflicts int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			g := atomic.AddInt64(&gid, 1)
			sid := fmt.Sprintf("bench-p%d", g%sessions)
			args := &ebid.OpArgs{}
			i := int(g * 251)
			for pb.Next() {
				i++
				if i%10 != 9 {
					if !benchReadHeavyOp(ctx, b, app, sid, args, i) {
						return
					}
					continue
				}
				*args = ebid.OpArgs{Category: 1}
				call := core.NewCall(ebid.RegisterNewItem, sid, args, 0)
				_, err := app.Execute(ctx, call)
				call.Release()
				if err != nil {
					if errors.Is(err, db.ErrConflict) {
						atomic.AddInt64(&conflicts, 1)
						continue
					}
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		b.ReportMetric(float64(atomic.LoadInt64(&conflicts))/float64(b.N), "conflicts/op")
	})
}

// BenchmarkStoreTxCommit measures transaction commit latency against a
// mirrored WAL sink — the path group commit batches.
func BenchmarkStoreTxCommit(b *testing.B) {
	newBenchDB := func(b *testing.B) *db.DB {
		d := db.New(db.NewWALWithSink(io.Discard))
		err := d.CreateTable(db.Schema{Name: "t", Columns: []db.Column{{Name: "v", Type: db.Int}}})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("Sequential", func(b *testing.B) {
		d := newBenchDB(b)
		row := db.Row{"v": int64(1)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, err := d.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Insert("t", row); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		d := newBenchDB(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			row := db.Row{"v": int64(1)}
			for pb.Next() {
				tx, err := d.Begin()
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := tx.Insert("t", row); err != nil {
					b.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
