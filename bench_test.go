// Package repro's root benchmarks time the in-process layers one at a
// time: session-store reads and writes, the invoke pipeline, and
// transaction commit. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// They are for profiling a layer, not a gate. The end-to-end numbers the
// paper is about (throughput, failed requests per recovery) come from the
// real-process benchmark in bench/; the paper's tables and figures come
// from cmd/experiments, whose quick output is pinned by
// cmd/experiments/testdata/quick.golden. The contracts that do not depend
// on the machine are allocation-ceiling tests beside the code they bound.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

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

// BenchmarkStoreLookup measures one secondary-index query on the browse
// dataset's shape: 8000 items over 20 categories, so each category lists
// 400 item keys (the SearchItemsByCategory query), from a transaction
// with no writes of its own.
func BenchmarkStoreLookup(b *testing.B) {
	d := db.New(nil)
	cfg := ebid.DefaultDataset()
	cfg.Users, cfg.Items = 1000, 8000
	if err := ebid.LoadDataset(d, cfg); err != nil {
		b.Fatal(err)
	}
	categories := make([]any, cfg.Categories)
	for i := range categories {
		categories[i] = int64(i + 1)
	}
	tx, err := d.Begin()
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = tx.Abort() }()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		keys, err := tx.Lookup(ebid.TblItems, "category", categories[i%len(categories)])
		if err != nil || len(keys) != cfg.Items/cfg.Categories {
			b.Fatalf("Lookup = %d keys, %v", len(keys), err)
		}
		i++
	}
}
