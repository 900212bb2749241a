package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store/session"
)

// fakeBackend is a minimal ebid-server stand-in: it assigns EBIDSESSION
// cookies on login ops, serves /admin/fleet/status, and counts hits.
type fakeBackend struct {
	name   string
	hits   atomic.Int64
	nextID atomic.Int64
	srv    *httptest.Server
	// block, when set, parks /ebid/ requests until released (for
	// driving up proxy-side queue depth).
	block   chan struct{}
	arrived chan struct{}
}

func newFakeBackend(name string) *fakeBackend {
	b := &fakeBackend{name: name}
	b.srv = httptest.NewServer(http.HandlerFunc(b.serve))
	return b
}

func (b *fakeBackend) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/admin/fleet/status" {
		fmt.Fprintf(w, `{"node":%q,"in_flight":0}`, b.name)
		return
	}
	b.hits.Add(1)
	if b.arrived != nil {
		b.arrived <- struct{}{}
	}
	if b.block != nil {
		<-b.block
	}
	op := strings.TrimPrefix(r.URL.Path, "/ebid/")
	if cluster.IsLoginOp(op) {
		if _, err := r.Cookie("EBIDSESSION"); err != nil {
			http.SetCookie(w, &http.Cookie{
				Name:  "EBIDSESSION",
				Value: fmt.Sprintf("%s-s%d", b.name, b.nextID.Add(1)),
				Path:  "/",
			})
		}
	}
	fmt.Fprintf(w, "served by %s", b.name)
}

func testRouter(t *testing.T, policy cluster.RoutingPolicy, fakes ...*fakeBackend) (*Router, *httptest.Server) {
	t.Helper()
	backends := make([]*Backend, len(fakes))
	for i, f := range fakes {
		backends[i] = &Backend{Name: f.name, URL: f.srv.URL}
	}
	r := NewRouter(policy, backends, 20*time.Millisecond)
	r.Start()
	t.Cleanup(r.Stop)
	proxy := httptest.NewServer(r)
	t.Cleanup(proxy.Close)
	return r, proxy
}

// get issues one GET through the proxy, optionally with a session
// cookie, and returns status, body and any Set-Cookie session id.
func get(t *testing.T, url, sid string) (int, string, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if sid != "" {
		req.AddCookie(&http.Cookie{Name: "EBIDSESSION", Value: sid})
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	newSID := ""
	for _, c := range resp.Cookies() {
		if c.Name == "EBIDSESSION" {
			newSID = c.Value
		}
	}
	return resp.StatusCode, body.String(), newSID
}

// TestRouterStickySession: once a login assigns a session cookie, every
// follow-up request with that cookie lands on the same backend.
func TestRouterStickySession(t *testing.T) {
	b0, b1 := newFakeBackend("node0"), newFakeBackend("node1")
	defer b0.srv.Close()
	defer b1.srv.Close()
	_, proxy := testRouter(t, cluster.NewRoundRobin(), b0, b1)

	status, body, sid := get(t, proxy.URL+"/ebid/Authenticate?user=1", "")
	if status != http.StatusOK || sid == "" {
		t.Fatalf("login: status %d, sid %q", status, sid)
	}
	owner := body[len("served by "):]
	var other *fakeBackend
	if owner == "node0" {
		other = b1
	} else {
		other = b0
	}
	before := other.hits.Load()
	for i := 0; i < 10; i++ {
		status, got, _ := get(t, proxy.URL+"/ebid/ViewItem?item=1", sid)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if got != body {
			t.Fatalf("request %d went to %q, want %q", i, got, body)
		}
	}
	if other.hits.Load() != before {
		t.Errorf("non-affinity backend got %d extra hits", other.hits.Load()-before)
	}
}

// TestRouterFailoverSpill: when a session's backend dies, the request
// transparently fails over to a peer — 200 to the client, a spill
// recorded, no lost sessions.
func TestRouterFailoverSpill(t *testing.T) {
	b0, b1 := newFakeBackend("node0"), newFakeBackend("node1")
	defer b1.srv.Close()
	r, proxy := testRouter(t, cluster.NewRoundRobin(), b0, b1)

	// Pin a session to whichever backend answers the login.
	_, body, sid := get(t, proxy.URL+"/ebid/Authenticate?user=1", "")
	victim, survivor := b0, b1
	if strings.HasSuffix(body, "node1") {
		victim, survivor = b1, b0
	}
	victim.srv.Close()

	status, got, _ := get(t, proxy.URL+"/ebid/ViewItem?item=1", sid)
	if status != http.StatusOK {
		t.Fatalf("failover request: status %d, body %q", status, got)
	}
	if !strings.HasSuffix(got, survivor.name) {
		t.Fatalf("failover went to %q, want %s", got, survivor.name)
	}
	st := r.Status()
	if st["lost_sessions"].(int64) != 0 {
		t.Errorf("lost_sessions = %d, want 0", st["lost_sessions"])
	}
	if r.spills.Load()+r.retried.Load() == 0 {
		t.Error("neither a spill nor a transparent retry was recorded")
	}
	// The session is re-pinned: the next request needs no retry.
	retriedBefore := r.retried.Load()
	status, _, _ = get(t, proxy.URL+"/ebid/ViewItem?item=2", sid)
	if status != http.StatusOK {
		t.Fatalf("post-spill request: status %d", status)
	}
	if r.retried.Load() != retriedBefore {
		t.Error("re-pinned session still needed a transparent retry")
	}
}

// TestRouterDrainExcludesBackend: a draining backend receives no new
// sessions; established ones spill away from it.
func TestRouterDrainExcludesBackend(t *testing.T) {
	b0, b1 := newFakeBackend("node0"), newFakeBackend("node1")
	defer b0.srv.Close()
	defer b1.srv.Close()
	r, proxy := testRouter(t, cluster.NewRoundRobin(), b0, b1)

	// Pin a session, then drain its backend.
	_, body, sid := get(t, proxy.URL+"/ebid/Authenticate?user=1", "")
	pinned := "node0"
	if strings.HasSuffix(body, "node1") {
		pinned = "node1"
	}
	if !r.SetDrain(pinned, true) {
		t.Fatalf("SetDrain(%s) found no backend", pinned)
	}
	for i := 0; i < 6; i++ {
		status, got, _ := get(t, proxy.URL+"/ebid/ViewItem?item=1", sid)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if strings.HasSuffix(got, pinned) {
			t.Fatalf("request %d reached draining backend %s", i, pinned)
		}
	}
	// New sessions avoid the draining backend too.
	for i := 0; i < 6; i++ {
		_, got, _ := get(t, proxy.URL+"/ebid/Authenticate?user=2", "")
		if strings.HasSuffix(got, pinned) {
			t.Fatalf("new session %d landed on draining backend %s", i, pinned)
		}
	}
	// Un-drain: the backend serves again.
	r.SetDrain(pinned, false)
	seen := false
	for i := 0; i < 10 && !seen; i++ {
		_, got, _ := get(t, proxy.URL+"/ebid/Authenticate?user=3", "")
		seen = strings.HasSuffix(got, pinned)
	}
	if !seen {
		t.Errorf("un-drained backend %s got no traffic in 10 logins", pinned)
	}
}

// TestRouterShed503: with the shedding policy and every backend past
// the queue watermark, a new login is answered 503 + Retry-After while
// non-login traffic still flows. The hint is in whole seconds, rounded
// up: a sub-second one must not become "retry at once".
func TestRouterShed503(t *testing.T) {
	for _, tc := range []struct {
		hint time.Duration
		want string
	}{
		{2 * time.Second, "2"},
		{500 * time.Millisecond, "1"},
		{2900 * time.Millisecond, "3"},
	} {
		t.Run(tc.hint.String(), func(t *testing.T) {
			b0 := newFakeBackend("node0")
			defer b0.srv.Close()
			b0.block = make(chan struct{})
			b0.arrived = make(chan struct{}, 8)
			policy := &cluster.SheddingPolicy{Inner: cluster.NewRoundRobin(), QueueWatermark: 1, RetryAfter: tc.hint}
			_, proxy := testRouter(t, policy, b0)

			// Park two non-login requests on the backend so the proxy-side
			// queue depth passes the watermark.
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					status, _, _ := get(t, proxy.URL+"/ebid/ViewItem?item=1", "")
					if status != http.StatusOK {
						t.Errorf("parked request: status %d", status)
					}
				}()
			}
			<-b0.arrived
			<-b0.arrived

			resp, err := http.Get(proxy.URL + "/ebid/Home")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("login at capacity: status %d, want 503", resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.want {
				t.Errorf("Retry-After = %q for a %v hint, want %q", got, tc.hint, tc.want)
			}
			close(b0.block)
			wg.Wait()

			// Capacity restored: logins are admitted again.
			if status, _, _ := get(t, proxy.URL+"/ebid/Home", ""); status != http.StatusOK {
				t.Errorf("login after release: status %d, want 200", status)
			}
		})
	}
}

// TestRouterUnpinsOn401: a session-lapse 401 drops the affinity pin so
// the client's re-login can land anywhere.
func TestRouterUnpinsOn401(t *testing.T) {
	lapse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/admin/fleet/status" {
			fmt.Fprint(w, `{"in_flight":0}`)
			return
		}
		http.Error(w, "session lapsed", http.StatusUnauthorized)
	}))
	defer lapse.Close()
	r := NewRouter(cluster.NewRoundRobin(), []*Backend{{Name: "node0", URL: lapse.URL}}, 20*time.Millisecond)
	r.Start()
	defer r.Stop()
	proxy := httptest.NewServer(r)
	defer proxy.Close()

	// Seed a pin by hand via the affinity-learning path: the backend
	// never sets cookies here, so plant one directly.
	r.pin("sid-1", r.backends[0])

	status, _, _ := get(t, proxy.URL+"/ebid/AboutMe", "sid-1")
	if status != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", status)
	}
	if r.pinned("sid-1") != nil {
		t.Error("session still pinned after 401")
	}
}

// TestRouterProbeStats: the FleetProbe view reflects health and drain
// state, so the control plane sees the real fleet.
func TestRouterProbeStats(t *testing.T) {
	b0, b1 := newFakeBackend("node0"), newFakeBackend("node1")
	defer b1.srv.Close()
	r, _ := testRouter(t, cluster.LeastLoadedPolicy{}, b0, b1)

	r.SetDrain("node1", true)
	b0.srv.Close()
	time.Sleep(100 * time.Millisecond) // a few poll cycles

	stats := r.FleetStats()
	if len(stats) != 2 {
		t.Fatalf("got %d node stats, want 2", len(stats))
	}
	for _, st := range stats {
		switch st.Node {
		case "node0":
			if !st.Down {
				t.Error("node0 not reported down after its server closed")
			}
		case "node1":
			if !st.Draining {
				t.Error("node1 not reported draining")
			}
			if st.Down {
				t.Error("node1 reported down while healthy")
			}
		}
	}
	if r.AllHealthy() {
		t.Error("AllHealthy true with node0 dead")
	}
}

// BenchmarkProxyRouteNew measures the proxy-side routing decision (the
// pick path without any network I/O); TestRouterPickAllocs holds it at
// zero allocations.
func BenchmarkProxyRouteNew(b *testing.B) {
	backends := make([]*Backend, 4)
	for i := range backends {
		backends[i] = &Backend{Name: fmt.Sprintf("node%d", i)}
		backends[i].healthy.Store(true)
	}
	r := NewRouter(cluster.LeastLoadedPolicy{}, backends, time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.pick("ViewItem", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyForward measures one full proxied request over real
// sockets — the end-to-end hop cost the reverse proxy adds.
func BenchmarkProxyForward(b *testing.B) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/admin/fleet/status" {
			fmt.Fprint(w, `{"in_flight":0}`)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer backend.Close()
	r := NewRouter(cluster.LeastLoadedPolicy{}, []*Backend{{Name: "node0", URL: backend.URL}}, time.Hour)
	r.Start()
	defer r.Stop()
	proxy := httptest.NewServer(r)
	defer proxy.Close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(proxy.URL + "/ebid/ViewItem?item=1")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// discardWriter is a reusable minimal http.ResponseWriter.
type discardWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// rawBackend is a backend made of a bare listener: every request head
// that arrives is handed to reply, and what reply returns goes back on
// the wire byte for byte — framing, garbage and all. It allocates
// nothing per request, so it can stand behind an allocation count.
type rawBackend struct {
	l     net.Listener
	reply func(head []byte) (resp []byte, hangUp bool)
	heads atomic.Int64 // /ebid/ request heads read
	conns atomic.Int64 // connections accepted

	mu       sync.Mutex
	open     []net.Conn
	accepted chan struct{} // closed when the accept loop has returned
	serving  sync.WaitGroup
}

func newRawBackend(t *testing.T, addr string, reply func(head []byte) ([]byte, bool)) *rawBackend {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rb := &rawBackend{l: l, reply: reply, accepted: make(chan struct{})}
	go func() {
		defer close(rb.accepted)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			rb.conns.Add(1)
			rb.mu.Lock()
			rb.open = append(rb.open, c)
			rb.mu.Unlock()
			rb.serving.Add(1)
			go func() {
				defer rb.serving.Done()
				rb.serve(c)
			}()
		}
	}()
	t.Cleanup(rb.kill)
	return rb
}

// kill ends the backend the way SIGKILL ends a process: the listener and
// every connection close at once, whatever was in flight.
func (rb *rawBackend) kill() {
	rb.l.Close()
	<-rb.accepted
	rb.mu.Lock()
	for _, c := range rb.open {
		c.Close()
	}
	rb.open = nil
	rb.mu.Unlock()
	rb.serving.Wait()
}

func (rb *rawBackend) url() string { return "http://" + rb.l.Addr().String() }

func (rb *rawBackend) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var head []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		head = append(head, line...)
		if len(line) > 2 {
			continue
		}
		resp, hangUp := statusReply, false
		if !bytes.HasPrefix(head, []byte("GET /admin/")) { // not the router's health poll
			rb.heads.Add(1)
			resp, hangUp = rb.reply(head)
		}
		if _, err := c.Write(resp); err != nil || hangUp {
			return
		}
		head = head[:0]
	}
}

// statusReply answers the health poll so a rawBackend counts as healthy.
var statusReply = []byte("HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n{\"in_flight\":0}")

// rawRouter fronts raw backends. The poll interval is long: the tests
// using it are about what the forwarder finds out by itself.
func rawRouter(t *testing.T, raws ...*rawBackend) *Router {
	t.Helper()
	backends := make([]*Backend, len(raws))
	for i, rb := range raws {
		backends[i] = &Backend{Name: fmt.Sprintf("node%d", i), URL: rb.url()}
	}
	r := NewRouter(cluster.LeastLoadedPolicy{}, backends, time.Hour)
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

// TestRouterForwardAllocs is the allocation ceiling of the proxy hop for
// an established session: what remains is the relayed header strings and
// the cancellation hook on the request's context. The http.Client path
// this replaced spent about 60 here.
func TestRouterForwardAllocs(t *testing.T) {
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: 3\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\n\r\nok\n")
	rb := newRawBackend(t, "127.0.0.1:0", func([]byte) ([]byte, bool) { return resp, false })
	r := rawRouter(t, rb)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/ebid/ViewItem?item=1", nil).WithContext(ctx)
	req.Header.Set("Cookie", "EBIDSESSION=s1")
	w := &discardWriter{hdr: http.Header{}}
	serve := func() {
		clear(w.hdr)
		r.ServeHTTP(w, req)
	}
	serve() // dials, pins
	if w.status != http.StatusOK || w.n != 3 {
		t.Fatalf("status %d, %d body bytes", w.status, w.n)
	}
	if allocs := testing.AllocsPerRun(200, serve); allocs > 16 {
		t.Errorf("Router.ServeHTTP allocates %.1f times per established-session request, want <= 16", allocs)
	}
	if n := rb.conns.Load(); n != 2 { // the poll's and the forwarder's
		t.Errorf("%d connections to the backend, want 2: the forwarder did not reuse its own", n)
	}
}

// serveOnce drives Router.ServeHTTP directly with one GET carrying sid.
func serveOnce(r *Router, target, sid string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if sid != "" {
		req.Header.Set("Cookie", "EBIDSESSION="+sid)
	}
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	return rec
}

func idleConns(b *Backend) int {
	b.poolMu.Lock()
	defer b.poolMu.Unlock()
	return len(b.idle)
}

func okReply(body string) func([]byte) ([]byte, bool) {
	resp := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	return func([]byte) ([]byte, bool) { return resp, false }
}

// TestForwardStaleConnRedials: a backend restarted on the same address
// between two requests of a session leaves a dead connection in the
// pool. The second request finds that out, dials the new incarnation and
// is answered; nothing is counted against the backend.
func TestForwardStaleConnRedials(t *testing.T) {
	rb := newRawBackend(t, "127.0.0.1:0", okReply("first"))
	r := rawRouter(t, rb)
	if rec := serveOnce(r, "/ebid/ViewItem?item=1", "s1"); rec.Code != http.StatusOK || rec.Body.String() != "first" {
		t.Fatalf("before the restart: %d %q", rec.Code, rec.Body)
	}
	if idleConns(r.backends[0]) != 1 {
		t.Fatal("the connection was not pooled")
	}
	rb.kill()
	next := newRawBackend(t, rb.l.Addr().String(), okReply("second"))

	rec := serveOnce(r, "/ebid/ViewItem?item=1", "s1")
	if rec.Code != http.StatusOK || rec.Body.String() != "second" {
		t.Fatalf("after the restart: %d %q", rec.Code, rec.Body)
	}
	b := r.backends[0]
	if r.retried.Load() != 0 || b.failed.Load() != 0 || !b.Healthy() {
		t.Errorf("retried %d, failed %d, healthy %v: a stale pooled connection was charged to the backend",
			r.retried.Load(), b.failed.Load(), b.Healthy())
	}
	if next.conns.Load() != 1 || idleConns(b) != 1 {
		t.Errorf("%d connections to the new incarnation, %d idle; want 1 and 1", next.conns.Load(), idleConns(b))
	}
}

// TestForwardKilledInFlightSpills: the backend dies with a request on the
// wire. The router tries it once more (the connection was a reused one),
// is refused, marks it down and serves the session from the peer.
func TestForwardKilledInFlightSpills(t *testing.T) {
	arrived := make(chan struct{})
	never := make(chan struct{})
	defer close(never)
	victim := newRawBackend(t, "127.0.0.1:0", func(head []byte) ([]byte, bool) {
		if bytes.Contains(head, []byte("/ebid/AboutMe")) {
			close(arrived)
			<-never
		}
		return []byte("HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nvictim"), false
	})
	peer := newRawBackend(t, "127.0.0.1:0", okReply("peer"))
	r := rawRouter(t, victim, peer)
	r.pin("s1", r.backends[0])
	if rec := serveOnce(r, "/ebid/ViewItem?item=1", "s1"); rec.Body.String() != "victim" {
		t.Fatalf("warm-up answered %d %q", rec.Code, rec.Body)
	}

	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serveOnce(r, "/ebid/AboutMe", "s1") }()
	<-arrived
	go victim.kill() // returns once never is closed
	rec := <-done
	if rec.Code != http.StatusOK || rec.Body.String() != "peer" {
		t.Fatalf("in-flight request: %d %q, want 200 from the peer", rec.Code, rec.Body)
	}
	if got := r.retried.Load(); got != 1 {
		t.Errorf("retried = %d, want 1", got)
	}
	if r.spills.Load() != 1 || r.lostSessions.Load() != 0 {
		t.Errorf("spilled %d, lost %d; want 1 and 0", r.spills.Load(), r.lostSessions.Load())
	}
	if b := r.backends[0]; b.Healthy() || idleConns(b) != 0 || b.QueueDepth() != 0 {
		t.Errorf("victim: healthy %v, %d idle connections, queue depth %d", b.Healthy(), idleConns(b), b.QueueDepth())
	}
	if rec := serveOnce(r, "/ebid/ViewItem?item=2", "s1"); rec.Body.String() != "peer" || r.retried.Load() != 1 {
		t.Errorf("follow-up: %q, retried %d; the session was not re-pinned", rec.Body, r.retried.Load())
	}
}

// TestForwardKilledCommitIsNotResent: the backend dies after reading a
// commit point. It may have committed, so the router answers 502 with an
// unknown outcome, counts it and marks the backend down, and the peer
// never sees the request. A commit whose dial is refused never reached the
// dead backend, and goes to the peer.
func TestForwardKilledCommitIsNotResent(t *testing.T) {
	arrived := make(chan struct{})
	never := make(chan struct{})
	defer close(never)
	victim := newRawBackend(t, "127.0.0.1:0", func(head []byte) ([]byte, bool) {
		if bytes.Contains(head, []byte("/ebid/CommitBid")) {
			close(arrived)
			<-never
		}
		return []byte("HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nvictim"), false
	})
	peer := newRawBackend(t, "127.0.0.1:0", okReply("peer"))
	r := rawRouter(t, victim, peer)
	r.pin("s1", r.backends[0])
	if rec := serveOnce(r, "/ebid/ViewItem?item=1", "s1"); rec.Body.String() != "victim" {
		t.Fatalf("warm-up answered %d %q", rec.Code, rec.Body)
	}

	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serveOnce(r, "/ebid/CommitBid?amount=10", "s1") }()
	<-arrived
	go victim.kill() // returns once never is closed
	rec := <-done
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "outcome unknown") {
		t.Fatalf("killed commit: %d %q, want 502 with an unknown outcome", rec.Code, rec.Body)
	}
	if n := peer.heads.Load(); n != 0 {
		t.Fatalf("the peer read %d request heads: the commit was re-sent", n)
	}
	if got := r.Status()["unknown_outcome"]; got != int64(1) || r.retried.Load() != 0 {
		t.Errorf("unknown_outcome %v, retried %d; want 1 and 0", got, r.retried.Load())
	}
	if b := r.backends[0]; b.Healthy() || b.failed.Load() != 1 || b.QueueDepth() != 0 {
		t.Errorf("victim: healthy %v, failed %d, queue depth %d", b.Healthy(), b.failed.Load(), b.QueueDepth())
	}

	// Dead with no idle connection left, but not yet noticed by a poll.
	r.backends[0].healthy.Store(true)
	r.pin("s2", r.backends[0])
	if rec := serveOnce(r, "/ebid/CommitBid?amount=11", "s2"); rec.Code != http.StatusOK || rec.Body.String() != "peer" {
		t.Fatalf("commit with a refused dial: %d %q, want 200 from the peer", rec.Code, rec.Body)
	}
	if peer.heads.Load() != 1 || r.retried.Load() != 1 || r.Status()["unknown_outcome"] != int64(1) {
		t.Errorf("peer read %d heads, retried %d, unknown_outcome %v; want 1, 1 and 1",
			peer.heads.Load(), r.retried.Load(), r.Status()["unknown_outcome"])
	}
}

// TestForwardFraming: however the backend frames a response, the client
// gets the same bytes, and the connection goes back to the pool exactly
// when it is in a known state and the backend keeps it open.
func TestForwardFraming(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 5000) // 80 000 B: many reads of the 8 KiB buffer
	for _, tc := range []struct {
		name, resp, body string
		hangUp, pooled   bool
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", "hello", false, true},
		{"large", "HTTP/1.1 200 OK\r\nContent-Length: 80000\r\n\r\n" + big, big, false, true},
		{"connection-close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello", "hello", true, false},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n", "hello world", false, true},
		{"until-close", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello", "hello", true, false},
		{"http-1.0", "HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello", "hello", true, false},
		{"no-body", "HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n", "", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb := newRawBackend(t, "127.0.0.1:0", func([]byte) ([]byte, bool) { return []byte(tc.resp), tc.hangUp })
			r := rawRouter(t, rb)
			for i := 0; i < 3; i++ {
				rec := serveOnce(r, "/ebid/ViewItem?item=1", "s1")
				if rec.Body.String() != tc.body {
					t.Fatalf("request %d: body of %d B differs from the %d B the backend sent", i, rec.Body.Len(), len(tc.body))
				}
				if h := rec.Header(); h.Get("Connection") != "" || h.Get("Transfer-Encoding") != "" {
					t.Errorf("request %d: this hop's framing headers were relayed: %v", i, h)
				}
			}
			wantConns, wantIdle := int64(1+3), 0 // the poll's, and one per request
			if tc.pooled {
				wantConns, wantIdle = 1+1, 1
			}
			if rb.conns.Load() != wantConns || idleConns(r.backends[0]) != wantIdle {
				t.Errorf("%d connections, %d idle; want %d and %d", rb.conns.Load(), idleConns(r.backends[0]), wantConns, wantIdle)
			}
		})
	}
}

// TestForwardHeadersSurvive: every request header reaches the backend and
// every response header the client — repeated ones in order — and the
// session cookie among them is learned as affinity.
func TestForwardHeadersSurvive(t *testing.T) {
	var sawTrace atomic.Bool
	rb := newRawBackend(t, "127.0.0.1:0", func(head []byte) ([]byte, bool) {
		sawTrace.Store(bytes.Contains(head, []byte("\r\nX-Bench-Req: 42\r\n")))
		return []byte("HTTP/1.1 200 OK\r\nSet-Cookie: EBIDSESSION=abc; Path=/\r\nx-served-by: raw\r\n" +
			"Set-Cookie: theme=dark\r\nContent-Length: 2\r\n\r\nok"), false
	})
	r := rawRouter(t, rb)
	req := httptest.NewRequest(http.MethodGet, "/ebid/Authenticate?user=1", nil)
	req.Header.Set("X-Bench-Req", "42")
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, req)

	if !sawTrace.Load() {
		t.Error("X-Bench-Req did not reach the backend")
	}
	want := []string{"EBIDSESSION=abc; Path=/", "theme=dark"}
	if got := rec.Header()["Set-Cookie"]; !slices.Equal(got, want) {
		t.Errorf("Set-Cookie = %q, want %q", got, want)
	}
	if rec.Header().Get("X-Served-By") != "raw" {
		t.Errorf("x-served-by was not relayed: %v", rec.Header())
	}
	if r.pinned("abc") != r.backends[0] {
		t.Error("affinity was not learned from Set-Cookie")
	}
}

// TestRouterRefusesBodies: a request with a body is turned away before
// anything is sent to a backend.
func TestRouterRefusesBodies(t *testing.T) {
	rb := newRawBackend(t, "127.0.0.1:0", okReply("ok"))
	r := rawRouter(t, rb)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ebid/CommitBid", strings.NewReader("amount=10.5")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", rec.Code)
	}
	if rb.heads.Load() != 0 {
		t.Errorf("%d requests reached the backend", rb.heads.Load())
	}
}

// TestForwardClientCancel: a client that goes away while the backend is
// still working — before the head, or in the middle of the body — gets
// its backend connection closed, not pooled, and is not counted against
// the backend.
func TestForwardClientCancel(t *testing.T) {
	for name, partial := range map[string]string{
		"before-head": "",
		"mid-body":    "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
	} {
		t.Run(name, func(t *testing.T) {
			arrived := make(chan struct{}, 1)
			rb := newRawBackend(t, "127.0.0.1:0", func([]byte) ([]byte, bool) {
				arrived <- struct{}{}
				return []byte(partial), false // and then nothing more
			})
			r := rawRouter(t, rb)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(http.MethodGet, "/ebid/ViewItem?item=1", nil).WithContext(ctx)
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				r.ServeHTTP(httptest.NewRecorder(), req)
			}()
			<-arrived
			if d := r.backends[0].QueueDepth(); d != 1 {
				t.Errorf("queue depth %d with the request in flight, want 1", d)
			}
			cancel()
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatal("ServeHTTP still blocked on the backend 5 s after the client left")
			}
			b := r.backends[0]
			if b.QueueDepth() != 0 || idleConns(b) != 0 {
				t.Errorf("queue depth %d, %d idle connections; want 0 and 0", b.QueueDepth(), idleConns(b))
			}
			if !b.Healthy() || r.retried.Load() != 0 {
				t.Errorf("healthy %v, retried %d: the client's departure was charged to the backend", b.Healthy(), r.retried.Load())
			}
		})
	}
}

// TestForwardGarbageHead: a backend that answers with something other
// than an HTTP response head is marked down and the client told 502.
func TestForwardGarbageHead(t *testing.T) {
	for name, resp := range map[string]string{
		"not-http":       "SSH-2.0-OpenSSH_9.6\r\n\r\n",
		"short":          "HTTP/1.1 2",
		"empty":          "",
		"bad-length":     "HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\nhello",
		"no-colon":       "HTTP/1.1 200 OK\r\nContent-Length 5\r\n\r\nhello",
		"informational":  "HTTP/1.1 100 Continue\r\n\r\n",
		"gzip-encoding":  "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nhello",
		"endless-header": "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("x", 10<<10) + "\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			rb := newRawBackend(t, "127.0.0.1:0", func([]byte) ([]byte, bool) { return []byte(resp), true })
			r := rawRouter(t, rb)
			rec := serveOnce(r, "/ebid/ViewItem?item=1", "")
			if rec.Code != http.StatusBadGateway {
				t.Errorf("status = %d, want 502", rec.Code)
			}
			b := r.backends[0]
			if b.Healthy() || b.failed.Load() == 0 || idleConns(b) != 0 || b.QueueDepth() != 0 {
				t.Errorf("healthy %v, failed %d, %d idle, queue depth %d", b.Healthy(), b.failed.Load(), idleConns(b), b.QueueDepth())
			}
		})
	}
}

// FuzzParseResponseHead: whatever a backend sends, the head parser
// returns a head it can stand behind or an error, and does not panic.
func FuzzParseResponseHead(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: 3\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\n\r\nok\n",
		"HTTP/1.1 200 OK\r\nSet-Cookie: EBIDSESSION=http-0123; Path=/\r\nSet-Cookie: a=b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nconnection: Close\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.0 200\n\n",
		"HTTP/1.1 200 OK\r\n: empty name\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 999\r\n\r\n",
		"garbage",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h respHead
		br := bufio.NewReaderSize(bytes.NewReader(data), 8<<10)
		for i := 0; i < 2; i++ { // twice: the second parse reuses the first one's fields
			if err := parseResponseHead(br, &h); err != nil {
				return
			}
			if h.status < 200 || h.status > 999 || h.length < -1 || len(h.fields) > maxHeaderFields {
				t.Fatalf("accepted status %d, length %d, %d fields", h.status, h.length, len(h.fields))
			}
			for _, fld := range h.fields {
				if fld.name == "" || fld.name == "Connection" || fld.name == "Transfer-Encoding" {
					t.Fatalf("relays header %q", fld.name)
				}
			}
		}
	})
}

// TestRouterForgetsIdleSessions: a session nobody has used for longer
// than the session lease leaves the affinity table on the next sweep,
// and pinned_sessions on /admin/proxy/status falls with it.
func TestRouterForgetsIdleSessions(t *testing.T) {
	rb := newRawBackend(t, "127.0.0.1:0", okReply("ok"))
	var elapsed atomic.Int64
	start := time.Now()
	r := NewRouter(cluster.LeastLoadedPolicy{}, []*Backend{{Name: "node0", URL: rb.url()}}, 5*time.Millisecond)
	r.now = func() time.Time { return start.Add(time.Duration(elapsed.Load())) }
	r.Start()
	defer r.Stop()

	serveOnce(r, "/ebid/AboutMe", "idle")
	serveOnce(r, "/ebid/AboutMe", "active")
	if n := r.Status()["pinned_sessions"]; n != 2 {
		t.Fatalf("pinned_sessions = %v, want 2", n)
	}
	elapsed.Add(int64(session.DefaultLeaseTTL - time.Minute))
	serveOnce(r, "/ebid/AboutMe", "active")
	elapsed.Add(int64(affinitySweepEvery + time.Minute)) // "idle" is past the lease now, "active" well inside it

	deadline := time.Now().Add(5 * time.Second)
	for r.Status()["pinned_sessions"] != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pinned_sessions = %v after the sweep interval, want 1", r.Status()["pinned_sessions"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.pinned("idle") != nil || r.pinned("active") == nil {
		t.Error("the sweep dropped the wrong session")
	}
}

// BenchmarkProxyForwardParallel is BenchmarkProxyForward where the
// affinity table and the connection pools are shared: eight keep-alive
// client connections, each its own established session, two backends.
func BenchmarkProxyForwardParallel(b *testing.B) {
	const clients = 8
	backends := make([]*Backend, 2)
	for i := range backends {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/admin/fleet/status" {
				fmt.Fprint(w, `{"in_flight":0}`)
				return
			}
			fmt.Fprint(w, "ok")
		}))
		defer srv.Close()
		backends[i] = &Backend{Name: fmt.Sprintf("node%d", i), URL: srv.URL}
	}
	r := NewRouter(cluster.LeastLoadedPolicy{}, backends, time.Hour)
	r.Start()
	defer r.Stop()
	proxy := httptest.NewServer(r)
	defer proxy.Close()

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		sid := fmt.Sprintf("bench-%d", c)
		r.pin(sid, backends[c%len(backends)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			req, _ := http.NewRequest(http.MethodGet, proxy.URL+"/ebid/ViewItem?item=1", nil)
			req.AddCookie(&http.Cookie{Name: "EBIDSESSION", Value: sid})
			for next.Add(1) <= int64(b.N) {
				resp, err := client.Do(req)
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
