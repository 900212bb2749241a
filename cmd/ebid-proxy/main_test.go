package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/fleet"
	"repro/internal/httpfront"
)

// countingListener counts the Read and Write calls on the connections it
// accepts, all of them together: a Write when it is called, a Read when it
// returns. So once a client has read a response, the Write that sent it
// and the Read that took its request have both been counted, and the Read
// pending for the next request has not.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

type countedConn struct {
	net.Conn
	l *countingListener
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

func listenCounting(t *testing.T) *countingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	t.Cleanup(func() {
		l.Close()
		cl.mu.Lock()
		defer cl.mu.Unlock()
		for _, c := range cl.conns {
			c.Close()
		}
	})
	return cl
}

// accepted is how many connections l has accepted.
func (l *countingListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, nc)
	l.mu.Unlock()
	return &countedConn{Conn: nc, l: l}, nil
}

// viewItemPage is the answer of the raw backend to every /ebid/ request:
// the head ebid-server sends with a ViewItem page, and a body of a page's
// size.
var (
	viewItemBody = "<html><body><h1>Item 7</h1>" + strings.Repeat("<p>bid history row</p>", 60) + "</body></html>\n"
	viewItemPage = []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\nContent-Length: %d\r\n\r\n%s", len(viewItemBody), viewItemBody))
)

var statusReply = []byte("HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n{\"in_flight\":0}")

// heldRequest starts the request line of the one request the raw backend
// holds: it signals held when the request arrives and answers it once
// release is closed.
var heldRequest = []byte("GET /ebid/ViewBidHistory")

// serveRawBackend answers each request head on l's connections with fixed
// bytes — the router's health poll with a status, anything else with
// viewItemPage — and allocates nothing per request.
func serveRawBackend(l *countingListener, held chan<- struct{}, release <-chan struct{}) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			br := bufio.NewReader(c)
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				reply := viewItemPage
				if bytes.HasPrefix(line, []byte("GET /admin/")) {
					reply = statusReply
				}
				hold := bytes.HasPrefix(line, heldRequest)
				for len(line) > 2 { // up to the blank line
					if line, err = br.ReadSlice('\n'); err != nil {
						return
					}
				}
				if hold {
					held <- struct{}{}
					<-release
				}
				if _, err := c.Write(reply); err != nil {
					return
				}
			}
		}()
	}
}

// proxy is the handler ebid-proxy serves, on httpfront.Server, in front of one
// raw backend, with one keep-alive client connection; all on loopback. The
// supervisor's node0 is a stand-in process, so a reboot restarts it while
// the raw backend answers on.
type proxy struct {
	front, backend *countingListener
	client         net.Conn
	br             *bufio.Reader
	router         *fleet.Router
	sup            *fleet.Supervisor
	held, release  chan struct{} // see heldRequest
}

func newProxy(t *testing.T) *proxy {
	t.Helper()
	p := &proxy{front: listenCounting(t), backend: listenCounting(t), held: make(chan struct{}), release: make(chan struct{})}
	go serveRawBackend(p.backend, p.held, p.release)
	p.router = fleet.NewRouter(cluster.LeastLoadedPolicy{},
		[]*fleet.Backend{{Name: "node0", URL: "http://" + p.backend.Addr().String()}}, time.Hour)
	p.router.Start()
	t.Cleanup(p.router.Stop)
	p.sup = fleet.New(nil)
	if err := p.sup.Add(fleet.ChildSpec{Name: "node0", Path: "/bin/sh", Args: []string{"-c", "sleep 60"}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.sup.Stop)
	plane := controlplane.New(controlplane.Config{Clock: func() time.Duration { return 0 }, Fleet: p.router})
	fc := controlplane.NewFleetController(&fleet.Actuator{Router: p.router, Sup: p.sup}, controlplane.FleetConfig{})
	plane.Use(fc)
	srv := &httpfront.Server{Handler: newHandler(p.router, p.sup, plane, fc, 1)}
	go srv.Serve(p.front) // returns once the cleanup closes srv
	t.Cleanup(func() { srv.Close() })

	var err error
	if p.client, err = net.Dial("tcp", p.front.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.client.Close() })
	_ = p.client.SetDeadline(time.Now().Add(time.Minute))
	p.br = bufio.NewReaderSize(p.client, 8<<10)
	return p
}

var viewItem = []byte("GET /ebid/ViewItem?item=7 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: bench\r\nCookie: EBIDSESSION=http-0123456789abcdef0123456789abcdef\r\nX-Bench-Req: 1\r\n\r\n")

// view sends one ViewItem of an established session, as the bench client
// does, and reads the whole response. It allocates nothing.
func (p *proxy) view(t *testing.T) {
	if _, err := p.client.Write(viewItem); err != nil {
		t.Fatal(err)
	}
	line, err := p.br.ReadSlice('\n')
	if err != nil || !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		t.Fatalf("the proxy answered %q, %v", line, err)
	}
	length := -1
	for len(line) > 2 {
		if line, err = p.br.ReadSlice('\n'); err != nil {
			t.Fatal(err)
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			length = 0
			for _, c := range bytes.TrimSpace(v) {
				length = 10*length + int(c-'0')
			}
		}
	}
	if length != len(viewItemBody) {
		t.Fatalf("Content-Length %d, want %d", length, len(viewItemBody))
	}
	if _, err := p.br.Discard(length); err != nil {
		t.Fatal(err)
	}
}

// TestProxySyscallsPerRequest is the proxy's count row: a keep-alive
// request costs one Read and one Write on the client's connection, and the
// forwarder sends each request head to the backend in one write, so the
// backend reads it at once.
func TestProxySyscallsPerRequest(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p := newProxy(t)
			p.view(t) // dials the backend connection and pins the session
			const n = 100
			reads, writes, backendReads := p.front.reads.Load(), p.front.writes.Load(), p.backend.reads.Load()
			for i := 0; i < n; i++ {
				p.view(t)
			}
			if w := p.front.writes.Load() - writes; w != n {
				t.Errorf("%d writes to the client for %d requests, want 1 each", w, n)
			}
			if r := p.front.reads.Load() - reads; r > n {
				t.Errorf("%d reads from the client for %d requests, want <= 1 each", r, n)
			}
			if r := p.backend.reads.Load() - backendReads; r > n {
				t.Errorf("the backend read %d times for %d requests, want <= 1 each", r, n)
			}
		})
	}
}

// status sends one request on its own goroutine and delivers its status
// code, or 0 if it failed.
func status(send func() (*http.Response, error)) <-chan int {
	ch := make(chan int, 1)
	go func() {
		resp, err := send()
		if err != nil {
			ch <- 0
			return
		}
		resp.Body.Close()
		ch <- resp.StatusCode
	}()
	return ch
}

// TestProxyRebootWaitsForInFlight: a reboot without hard=1 drains the
// backend and kills it only once the request the router has out on it is
// answered; then the drain it had before is back.
func TestProxyRebootWaitsForInFlight(t *testing.T) {
	p := newProxy(t)
	base := "http://" + p.front.Addr().String()
	answered := status(func() (*http.Response, error) { return http.Get(base + "/ebid/ViewBidHistory?item=7") })
	<-p.held
	rebooted := status(func() (*http.Response, error) { return http.Post(base+"/admin/proxy/reboot?backend=node0", "", nil) })

	select {
	case code := <-rebooted:
		t.Fatalf("the reboot answered %d while a request was in flight on node0", code)
	case <-time.After(200 * time.Millisecond):
	}
	if gen := p.sup.Status()[0].Gen; gen != 1 {
		t.Fatalf("node0 is at gen %d while a request was in flight on it, want 1", gen)
	}
	close(p.release)
	if code := <-answered; code != http.StatusOK {
		t.Fatalf("the in-flight request was answered %d, want 200", code)
	}
	if code := <-rebooted; code != http.StatusOK {
		t.Fatalf("the reboot answered %d, want 200", code)
	}
	if gen := p.sup.Status()[0].Gen; gen != 2 {
		t.Errorf("node0 is at gen %d after the reboot, want 2", gen)
	}
	if st := p.router.FleetStats()[0]; st.Draining {
		t.Error("node0 is still draining after the reboot")
	}
	// The held request's pooled connection led to the incarnation that was
	// killed: the next request must not reuse it.
	dialed := p.backend.accepted()
	p.view(t)
	if p.backend.accepted() == dialed {
		t.Error("the first request after the reboot reused a connection from before it")
	}
}
