package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/httpfront"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

// allocLadder measures allocations per op at four depths of the same
// stack on the same ops — App.Execute, the httpfront handler, httpfront
// over a socket, the router over a socket — so that each layer's share is
// the difference between two rungs. The generator's own requests are
// allocation-free, so a socket rung counts only server-side work.
func allocLadder(w *workloadSpec, t *tracer, p *inproc, st *stream, n int, m map[string]float64) {
	perOp := func(run func()) float64 {
		before := mallocs()
		run()
		return float64(mallocs()-before) / float64(n)
	}
	front := perOp(func() { replay(t, p.fronts[0], st, n, false) })
	if p.router != nil {
		routed := perOp(func() { replay(t, p.target, st, n, false) })
		m["fleet.router.allocs_per_op"] = routed - front
	}

	// Below the socket: requests and calls are built before the counter
	// is read, so only the layer's own allocations are counted.
	reqs := make([]*http.Request, n)
	calls := make([]*core.Call, n)
	for i := range reqs {
		o := &st.ops[i]
		sid := fmt.Sprintf("ladder-%d", o.user)
		r, err := http.NewRequest(http.MethodGet, "http://bench"+o.path, nil)
		if err != nil {
			panic(err) // paths are generated by this program
		}
		r.Header.Set("Cookie", "EBIDSESSION="+sid)
		reqs[i] = r
		args := &ebid.OpArgs{}
		if _, q, ok := strings.Cut(o.path, "?"); ok {
			vals, _ := url.ParseQuery(q) // generated by this program
			for k, v := range vals {
				args.SetString(k, v[0])
			}
		}
		calls[i] = &core.Call{Op: o.name, SessionID: sid + "x", Args: args, TTL: httpfront.DefaultRequestTTL}
	}
	rw := &nullWriter{hdr: http.Header{}}
	handler := perOp(func() {
		for _, r := range reqs {
			clear(rw.hdr)
			p.handlers[0].ServeHTTP(rw, r)
		}
	})
	ctx := context.Background()
	execute := perOp(func() {
		for _, c := range calls {
			_, _ = p.apps[0].Execute(ctx, c) // outcomes were checked by the replay; only allocations matter here
		}
	})
	m["ebid.allocs_per_op"] = execute
	m["httpfront.allocs_per_op"] = handler - execute
}

// nullWriter is the cheapest possible http.ResponseWriter.
type nullWriter struct{ hdr http.Header }

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

type noop struct{}

func (noop) Init(*core.Env) error                           { return nil }
func (noop) Stop() error                                    { return nil }
func (noop) Serve(context.Context, *core.Call) (any, error) { return nil, nil }
func timeEach(n int, fn func(i int)) (ns float64, allocs float64) {
	before := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	return float64(el) / float64(n), float64(mallocs()-before) / float64(n)
}

// microPass times the layers no wrapper can get inside of, through their
// public API: core.Server.Invoke on a bare server, the real cost of a
// microreboot without its modeled sleep, the session store, the database's
// read and commit paths, and WAL replay of the file the real run left.
func microPass(w *workloadSpec, p *inproc, walPath, dir string, m map[string]float64) error {
	const n = 20000

	// core: a no-op component on a bare server.
	srv := core.NewServer()
	err := srv.Deploy(core.Application{Name: "bench", Components: []core.Descriptor{{
		Name: "Noop", Kind: core.StatelessSession, Factory: func() core.Component { return noop{} },
	}}})
	if err != nil {
		return err
	}
	ctx := context.Background()
	call := &core.Call{Op: "Noop", TTL: time.Minute}
	ns, _ := timeEach(n, func(int) { _, _ = srv.Invoke(ctx, "Noop", call) }) // a no-op cannot fail
	m["core.invoke_noop_ns"] = ns

	// core: what BeginMicroreboot and CompleteMicroreboot really cost, per
	// target of the rota, on the idle application.
	var begin, complete time.Duration
	for _, comp := range urbCycle {
		t0 := time.Now()
		rb, err := p.apps[0].Server.BeginMicroreboot(comp)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := p.apps[0].Server.CompleteMicroreboot(rb); err != nil {
			return err
		}
		begin += t1.Sub(t0)
		complete += time.Since(t1)
	}
	m["core.urb_begin_us"] = float64(begin) / float64(len(urbCycle)) / 1e3
	m["core.urb_complete_us"] = float64(complete) / float64(len(urbCycle)) / 1e3

	// store.session: allocations of one read of a live session.
	store := p.stores[0]
	probe := &session.Session{ID: "bench-probe", UserID: 1, Data: map[string]string{"nickname": "user1"}}
	if err := store.Write(probe); err != nil {
		return err
	}
	_, allocs := timeEach(2000, func(int) { _, _ = store.Read(probe.ID) }) // just written
	m["store.session.allocs_per_read"] = allocs

	// store.db: a fresh copy of the workload's dataset, with a WAL sink so
	// commits do the work they do in the server.
	walFile, err := os.Create(filepath.Join(dir, "micro.wal"))
	if err != nil {
		return err
	}
	defer walFile.Close() // scratch file, never read back
	d := db.New(db.NewWALWithSink(walFile))
	cfg := ebid.DefaultDataset()
	cfg.Users, cfg.Items = int(w.ds.users), int(w.ds.items)
	if err := ebid.LoadDataset(d, cfg); err != nil {
		return err
	}
	var dbErr error
	keep := func(err error) {
		if err != nil && dbErr == nil {
			dbErr = err
		}
	}
	ns, _ = timeEach(n, func(i int) {
		tx, err := d.Begin()
		if err != nil {
			keep(err)
			return
		}
		_, err = tx.Get(ebid.TblItems, int64(i%cfg.Items+1))
		keep(err)
		keep(tx.Commit())
		tx.Recycle()
	})
	m["store.db.point_read_ns"] = ns
	ns, _ = timeEach(n, func(i int) {
		tx, err := d.Begin()
		if err != nil {
			keep(err)
			return
		}
		_, err = tx.Lookup(ebid.TblBids, "item", int64(i%cfg.Items+1))
		keep(err)
		keep(tx.Commit())
		tx.Recycle()
	})
	m["store.db.lookup_ns"] = ns
	// The write transaction of CommitBid: take an id, insert the bid,
	// update the item.
	seqKey := int64(0)
	{
		tx, err := d.Begin()
		if err != nil {
			return err
		}
		keys, err := tx.Lookup(ebid.TblIDSeq, "kind", "bid")
		if err != nil || len(keys) != 1 {
			return fmt.Errorf("id_seq row for bids: %v (%d rows)", err, len(keys))
		}
		seqKey = keys[0]
		keep(tx.Commit())
	}
	walBefore, err := walFile.Seek(0, 1)
	if err != nil {
		return err
	}
	const commits = 5000
	ns, allocs = timeEach(commits, func(i int) {
		tx, err := d.Begin()
		if err != nil {
			keep(err)
			return
		}
		seq, err := tx.GetForUpdate(ebid.TblIDSeq, seqKey)
		if err != nil {
			keep(err)
			return
		}
		id := seq["next"].(int64)
		next := seq.Clone()
		next["next"] = id + 1
		keep(tx.Update(ebid.TblIDSeq, seqKey, next))
		item := int64(i%cfg.Items + 1)
		keep(tx.InsertWithKey(ebid.TblBids, id, db.Row{"user": int64(1), "item": item, "amount": 5.0}))
		row, err := tx.Get(ebid.TblItems, item)
		if err != nil {
			keep(err)
			return
		}
		upd := row.Clone()
		upd["nb_bids"] = upd["nb_bids"].(int64) + 1
		keep(tx.Update(ebid.TblItems, item, upd))
		keep(tx.Commit())
		tx.Recycle()
	})
	if dbErr != nil {
		return fmt.Errorf("db micro-pass: %w", dbErr)
	}
	m["store.db.commit_ns"] = ns
	m["store.db.commit_allocs"] = allocs
	walAfter, err := walFile.Seek(0, 1)
	if err != nil {
		return err
	}
	m["store.db.wal_bytes_per_commit"] = float64(walAfter-walBefore) / commits

	// WAL replay: what a restarted backend does before it serves again,
	// on the very file the real run's last incarnation left behind.
	if walPath != "" {
		fh, err := os.Open(walPath)
		if err != nil {
			return err
		}
		defer fh.Close() // read-only
		t0 := time.Now()
		wal, _, err := db.LoadWAL(fh)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", walPath, err)
		}
		if err := db.New(wal).Recover(); err != nil {
			return fmt.Errorf("replaying %s: %w", walPath, err)
		}
		m["store.db.wal_replay_ms"] = float64(time.Since(t0)) / 1e6
		m["store.db.wal_records"] = float64(wal.Len())
	}
	return nil
}
