package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/fleet"
	"repro/internal/httpfront"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

// The traced run replays the head of a workload's stream against the same
// stack assembled in-process from the packages' public constructors, with
// a timing wrapper at every boundary the benchmark can reach from its own
// files. The replay is serial (one connection), so at most one request is
// in flight and a layer's self time is its own work, not waiting.

const traceHeader = "X-Bench-Req"

// Layer names of the span ladder, outermost first.
const (
	layerClient  = "loadgen.client"
	layerRouter  = "fleet.router"
	layerFront   = "httpfront"
	layerWAR     = "ebid.war"
	layerSession = "ebid.session_comp"
	layerEntity  = "ebid.entity"
	layerSRead   = "store.session.read"
	layerSWrite  = "store.session.write"
)

// span is one timed interval of one request.
type span struct {
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index among the request's spans; -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the replay is over.
type tracer struct {
	on      atomic.Bool
	current atomic.Int32 // the request in flight, for boundaries that carry no context
	t0      time.Time

	mu    sync.Mutex
	spans map[int32][]span
	stack map[int32][]int32 // open spans per request, innermost last
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: map[int32][]span{}, stack: map[int32][]int32{}}
}

// begin opens a span under the request's innermost open span.
func (t *tracer) begin(req int32, name string) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if st := t.stack[req]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	idx := int32(len(t.spans[req]))
	t.spans[req] = append(t.spans[req], span{Req: req, Name: name, Parent: parent, Start: now})
	t.stack[req] = append(t.stack[req], idx)
	return idx
}

func (t *tracer) end(req, idx int32) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[req][idx].End = now
	if st := t.stack[req]; len(st) > 0 {
		t.stack[req] = st[:len(st)-1]
	}
}

type reqKey struct{}

// wrapHTTP times an http.Handler. The request id arrives as a header and
// leaves in the request context, for the layers below.
func (t *tracer) wrapHTTP(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.Atoi(r.Header.Get(traceHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		req := int32(id)
		idx := t.begin(req, name)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, req)))
		t.end(req, idx)
	})
}

// sessionComponents tells the application's tiers apart by name.
var sessionComponents = func() map[string]bool {
	m := map[string]bool{}
	for _, op := range ebid.Operations() {
		if p := ebid.PathFor(op); len(p) > 1 {
			m[p[1]] = true
		}
	}
	return m
}()

// interceptor times every hop through core.Server: the web tier, the
// session component, each entity.
func (t *tracer) interceptor() core.Interceptor {
	return func(ctx context.Context, call *core.Call, next core.Handler) (any, error) {
		if !t.on.Load() {
			return next(ctx, call)
		}
		req, ok := ctx.Value(reqKey{}).(int32)
		if !ok {
			return next(ctx, call)
		}
		name := layerEntity
		switch {
		case call.Component == ebid.WAR:
			name = layerWAR
		case sessionComponents[call.Component]:
			name = layerSession
		}
		idx := t.begin(req, name)
		res, err := next(ctx, call)
		t.end(req, idx)
		return res, err
	}
}

// tracedStore times the session store. session.Store carries no context,
// so the request is the one the serial replay has in flight.
type tracedStore struct {
	session.Store
	t *tracer
}

func (s tracedStore) Read(id string) (*session.Session, error) {
	if !s.t.on.Load() {
		return s.Store.Read(id)
	}
	req := s.t.current.Load()
	idx := s.t.begin(req, layerSRead)
	out, err := s.Store.Read(id)
	s.t.end(req, idx)
	return out, err
}

func (s tracedStore) Write(v *session.Session) error {
	if !s.t.on.Load() {
		return s.Store.Write(v)
	}
	req := s.t.current.Load()
	idx := s.t.begin(req, layerSWrite)
	err := s.Store.Write(v)
	s.t.end(req, idx)
	return err
}

// selfTimes returns, per layer name, the total self time over the spans of
// one request: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		covered := int64(0)
		// Children sorted by start; overlapping ones are merged so no
		// instant is subtracted twice, and nothing outside the parent is.
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		at := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, at), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// inproc is the workload's deployment rebuilt inside this process.
type inproc struct {
	target   string // where the replay sends its requests
	fronts   []string
	handlers []http.Handler // the (wrapped) httpfront handlers
	apps     []*ebid.App
	stores   []session.Store // undecorated
	wals     []*db.WAL
	walFiles []*os.File
	servers  []*http.Server
	router   *fleet.Router
}

func (p *inproc) close() {
	if p.router != nil {
		p.router.Stop()
	}
	for _, s := range p.servers {
		_ = s.Close() // in-process listeners; nothing to drain
	}
	for _, f := range p.walFiles {
		_ = f.Close() // scratch WALs, never read back
	}
}

func serve(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(l) }() // returns ErrServerClosed on close
	return srv, l.Addr().String(), nil
}

func buildInproc(w *workloadSpec, t *tracer, dir string) (*inproc, error) {
	p := &inproc{}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	nodes := max(w.backends, 1)
	for i := 0; i < nodes; i++ {
		var wal *db.WAL
		if w.wal || w.backends > 0 {
			fh, err := os.Create(filepath.Join(dir, fmt.Sprintf("inproc-node%d.wal", i)))
			if err != nil {
				return p, err
			}
			p.walFiles = append(p.walFiles, fh)
			wal = db.NewWALWithSink(fh)
		}
		p.wals = append(p.wals, wal)
		d := db.New(wal)
		cfg := ebid.DefaultDataset()
		cfg.Users, cfg.Items = int(w.ds.users), int(w.ds.items)
		if err := ebid.LoadDataset(d, cfg); err != nil {
			return p, err
		}
		var store session.Store = session.NewFastS()
		if w.ssm {
			cl, err := session.NewSSMCluster(session.ClusterConfig{
				Shards: 4, Replicas: 3, WriteQuorum: 2, Now: clock, LeaseTTL: session.DefaultLeaseTTL,
			})
			if err != nil {
				return p, err
			}
			store = cl
		}
		p.stores = append(p.stores, store)
		app, err := ebid.New(d, tracedStore{Store: store, t: t}, clock)
		if err != nil {
			return p, err
		}
		app.Server.Use(t.interceptor())
		p.apps = append(p.apps, app)
		h := t.wrapHTTP(layerFront, httpfront.New(app).Handler())
		p.handlers = append(p.handlers, h)
		srv, addr, err := serve(h)
		if err != nil {
			return p, err
		}
		p.servers = append(p.servers, srv)
		p.fronts = append(p.fronts, addr)
	}
	p.target = p.fronts[0]
	if w.backends > 0 {
		var backends []*fleet.Backend
		for i, addr := range p.fronts {
			backends = append(backends, &fleet.Backend{Name: fmt.Sprintf("node%d", i), URL: "http://" + addr})
		}
		p.router = fleet.NewRouter(cluster.LeastLoadedPolicy{}, backends, 0)
		p.router.Start()
		mux := http.NewServeMux()
		mux.Handle("/ebid/", t.wrapHTTP(layerRouter, p.router))
		srv, addr, err := serve(mux)
		if err != nil {
			return p, err
		}
		p.servers = append(p.servers, srv)
		p.target = addr
	}
	return p, nil
}

// replay sends ops[0:n) serially at target and returns the median client
// latency in µs, the mean body size, and how many ops failed.
func replay(t *tracer, target string, st *stream, n int, traced bool) (latUS, bodyBytes float64, failed int) {
	t.on.Store(traced)
	defer t.on.Store(false)
	lr := &loadRun{target: target, st: st, from: 0, to: n, conns: 1, users: make([]vuser, st.vusers), trace: true}
	if traced {
		lr.tracer = t
	}
	lr.run()
	p := reduce(lr.res, 0, time.Hour, time.Hour)
	return percentile(p.latUS, 0.5), float64(lr.bodyBytes.Load()) / float64(n), p.failed
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traceLayers runs the traced replay, the allocation ladder and the
// micro-pass, and adds the layer metrics to m.
func traceLayers(w *workloadSpec, st *stream, walPath, dir string, m map[string]float64) error {
	t := newTracer()
	p, err := buildInproc(w, t, dir)
	defer p.close()
	if err != nil {
		return err
	}
	n := min(traceOps, len(st.ops))

	// The same ops three times: to warm every cache the ops touch, then
	// untraced, then traced. The difference between the medians of the
	// last two is what the wrappers cost.
	if _, _, failed := replay(t, p.target, st, n, false); failed > 0 {
		return fmt.Errorf("%d ops failed in the in-process warm-up", failed)
	}
	commits0, _, conflicts0 := p.dbStats()
	offUS, bodyBytes, failedOff := replay(t, p.target, st, n, false)
	commits1, _, conflicts1 := p.dbStats()
	onUS, _, failedOn := replay(t, p.target, st, n, true)
	if failedOff+failedOn > 0 {
		return fmt.Errorf("%d ops failed in the in-process replay", failedOff+failedOn)
	}
	m["trace.overhead_frac"] = (onUS - offUS) / offUS
	m["ebid.body_bytes_per_op"] = bodyBytes
	m["store.db.commits_per_op"] = float64(commits1-commits0) / float64(n)
	if commits1 > commits0 {
		m["store.db.conflicts_per_commit"] = float64(conflicts1-conflicts0) / float64(commits1-commits0)
	}

	// The ladder: per-layer self time, averaged over the traced ops.
	self := map[string]int64{}
	counts := map[string]int{}
	durs := map[string]int64{}
	var all []span
	for req := int32(0); req < int32(n); req++ {
		spans := t.spans[req]
		for name, ns := range selfTimes(spans) {
			self[name] += ns
		}
		for _, s := range spans {
			counts[s.Name]++
			durs[s.Name] += s.End - s.Start
		}
		all = append(all, spans...)
	}
	perOp := func(ns int64) float64 { return float64(ns) / float64(n) / 1e3 }
	m["loadgen.client_self_us"] = perOp(self[layerClient])
	m["fleet.router.self_us"] = perOp(self[layerRouter])
	m["httpfront.self_us"] = perOp(self[layerFront])
	m["ebid.war_self_us"] = perOp(self[layerWAR])
	m["ebid.session_comp_self_us"] = perOp(self[layerSession])
	m["ebid.entity_self_us"] = perOp(self[layerEntity])
	m["ebid.execute_us"] = perOp(durs[layerWAR])
	m["core.hops_per_op"] = float64(counts[layerWAR]+counts[layerSession]+counts[layerEntity]) / float64(n)
	m["store.session.calls_per_op"] = float64(counts[layerSRead]+counts[layerSWrite]) / float64(n)
	if c := counts[layerSRead]; c > 0 {
		m["store.session.read_us"] = float64(durs[layerSRead]) / float64(c) / 1e3
	}
	if c := counts[layerSWrite]; c > 0 {
		m["store.session.write_us"] = float64(durs[layerSWrite]) / float64(c) / 1e3
	}
	m["trace.spans"] = float64(len(all))
	var layered int64
	for _, ns := range self {
		layered += ns
	}
	// Self times partition the client span when every span nests inside
	// its parent; whatever is left over was not attributed to any layer.
	if client := durs[layerClient]; client > 0 {
		m["trace.unattributed_frac"] = float64(client-layered) / float64(client)
	}
	if err := writeSpans(filepath.Join(workRoot, "trace-"+w.name+".json"), all); err != nil {
		return err
	}

	allocLadder(w, t, p, st, min(n, 5000), m)
	for _, wal := range p.wals {
		if wal != nil {
			if batches, records, _ := wal.GroupCommitStats(); batches > 0 {
				m["store.db.group_commit_mean_batch"] = float64(records) / float64(batches)
			}
			break
		}
	}
	if cl, ok := p.stores[0].(*session.SSMCluster); ok {
		m["store.session.renewal_writes"] = float64(cl.RenewalWrites())
	}
	return microPass(w, p, walPath, dir, m)
}

func (p *inproc) dbStats() (commits, aborts, conflicts uint64) {
	for _, a := range p.apps {
		c, ab, cf := a.DB.Stats()
		commits, aborts, conflicts = commits+c, aborts+ab, conflicts+cf
	}
	return
}

func writeSpans(path string, spans []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(fh).Encode(spans); err != nil {
		_ = fh.Close() // the encode error is the one to report
		return err
	}
	return fh.Close()
}
