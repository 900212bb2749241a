package httpfront

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer is a Server on a loopback port for one test.
type testServer struct {
	*Server
	URL  string
	addr string
	done chan error // what Serve returned
}

// newServer serves h on a Server listening on a loopback port until the
// test ends.
func newServer(t *testing.T, h http.Handler) *testServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{Server: &Server{Handler: h}, addr: l.Addr().String(), done: make(chan error, 1)}
	ts.URL = "http://" + ts.addr
	go func() { ts.done <- ts.Serve(l) }()
	t.Cleanup(func() { ts.Close() })
	return ts
}

// dial opens a raw connection to ts.
func (ts *testServer) dial(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, bufio.NewReader(nc)
}

func send(t *testing.T, nc net.Conn, raw string) {
	t.Helper()
	if _, err := io.WriteString(nc, raw); err != nil {
		t.Fatal(err)
	}
}

// readResponse reads one response of a request with the given method and
// checks its framing: one Content-Length, equal to the body.
func readResponse(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading a body: %v", err)
	}
	if cl := resp.Header["Content-Length"]; len(cl) != 1 || (method != http.MethodHead && cl[0] != strconv.Itoa(len(body))) {
		t.Fatalf("Content-Length %q with a %d-byte body", cl, len(body))
	}
	return resp, string(body)
}

// expectEOF checks that the server closed the connection.
func expectEOF(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("read %q after the last response; want the connection closed", b)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestServerMatchesNetHTTP is the differential test: one request sequence
// through net/http's server and through Server, each in front of its own
// identical Front, gets the same statuses, bodies and header fields. Only
// Date and the session cookie's value may differ.
func TestServerMatchesNetHTTP(t *testing.T) {
	ref := httptest.NewServer(newFront(t).Handler())
	defer ref.Close()
	ours := newServer(t, newFront(t).Handler())

	// cookie, when set, is sent on a lower-case "cookie:" line by a client
	// with no cookie jar.
	type step struct{ method, target, body, cookie string }
	steps := []step{
		{"GET", "/ebid/Home", "", ""},
		{"GET", "/ebid/ViewItem?item=7", "", ""},
		{"GET", "/ebid/ViewItem?item=%37&unknown=x", "", ""},
		{"GET", "/ebid/View%49tem?item=5", "", ""},                        // read by http.ReadRequest
		{"GET", "/ebid/ViewItem?item=6;region=1&item=1+2&item=8", "", ""}, // by the fast path
		{"GET", "/ebid/AboutMe", "", SessionCookie + "=lower-case-line"},  // by the fast path
		{"HEAD", "/ebid/ViewItem?item=3", "", ""},
		{"GET", "/ebid/BrowseCategories", "", ""},
		{"GET", "/ebid/BrowseRegions", "", ""},
		{"GET", "/ebid/SearchItemsByCategory?category=2", "", ""},
		{"GET", "/ebid/AboutMe", "", ""}, // 401 before login
		{"GET", "/ebid/Authenticate?user=3", "", ""},
		{"GET", "/ebid/AboutMe", "", ""},
		{"GET", "/ebid/MakeBid?item=4", "", ""},
		{"GET", "/ebid/CommitBid?amount=12.5", "", ""},
		{"GET", "/ebid/ViewBidHistory?item=4", "", ""},
		{"POST", "/ebid/ViewItem?item=2", "ignored=body", ""},
		{"GET", "/ebid/Nope", "", ""},
		{"GET", "/ebid", "", ""}, // the mux's redirect
		{"GET", "/nothing/here", "", ""},
		{"GET", "/admin/microreboot?component=ViewItem", "", ""},
		{"POST", "/admin/microreboot", "", ""},
		{"POST", "/admin/microreboot?component=NoSuchComponent", "", ""},
		{"GET", "/admin/controlplane/status", "", ""},
		{"GET", "/debug/pprof/cmdline", "", ""},
	}
	client := func() *http.Client {
		jar, _ := cookiejar.New(nil)
		return &http.Client{Jar: jar, CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	}
	type result struct {
		status int
		body   string
		header http.Header
	}
	do := func(c *http.Client, base string, s step) result {
		var body io.Reader
		if s.body != "" {
			body = strings.NewReader(s.body)
		}
		req, err := http.NewRequest(s.method, base+s.target, body)
		if err != nil {
			t.Fatal(err)
		}
		if s.cookie != "" {
			c = &http.Client{}
			req.Header["cookie"] = []string{s.cookie}
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", s.method, s.target, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		h := resp.Header.Clone()
		delete(h, "Date")
		for i, v := range h["Set-Cookie"] {
			if rest, ok := strings.CutPrefix(v, SessionCookie+"="); ok {
				_, attrs, _ := strings.Cut(rest, ";")
				h["Set-Cookie"][i] = SessionCookie + "=<id>;" + attrs
			}
		}
		return result{resp.StatusCode, sessionIDs.ReplaceAllString(string(b), "<id>"), h}
	}
	refClient, ourClient := client(), client()
	for _, s := range steps {
		want, got := do(refClient, ref.URL, s), do(ourClient, ours.URL, s)
		if got.status != want.status || got.body != want.body {
			t.Errorf("%s %s: %d %q, net/http answers %d %q", s.method, s.target, got.status, got.body, want.status, want.body)
		}
		if fmt.Sprint(got.header) != fmt.Sprint(want.header) {
			t.Errorf("%s %s: header %v, net/http sends %v", s.method, s.target, got.header, want.header)
		}
	}
}

// sessionIDs matches the session ids the front assigns, which a 401 body
// quotes.
var sessionIDs = regexp.MustCompile(`http-[0-9a-f]{32}`)

// okHandler answers every request with its method and target, except
// /close, whose response asks for the connection to close.
var okHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/close" {
		w.Header().Set("Connection", "close")
	}
	io.WriteString(w, r.Method+" "+r.RequestURI)
})

// TestServerKeepAliveAndPipelining: sequential and pipelined requests on
// one connection are all answered, in order, on that connection.
func TestServerKeepAliveAndPipelining(t *testing.T) {
	ts := newServer(t, okHandler)
	nc, br := ts.dial(t)
	for i := 0; i < 3; i++ {
		send(t, nc, fmt.Sprintf("GET /seq/%d HTTP/1.1\r\nHost: x\r\n\r\n", i))
		resp, body := readResponse(t, br, "GET")
		if resp.StatusCode != 200 || body != fmt.Sprintf("GET /seq/%d", i) || resp.Close {
			t.Fatalf("request %d: %d %q close=%v", i, resp.StatusCode, body, resp.Close)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Fatalf("request %d: Content-Type %q, want the sniffed text/plain", i, ct)
		}
	}
	var batch strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&batch, "GET /pipe/%d HTTP/1.1\r\nHost: x\r\n\r\n", i)
	}
	batch.WriteString("HEAD /pipe/head HTTP/1.1\r\nHost: x\r\n\r\n")
	batch.WriteString("POST /pipe/post HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
	send(t, nc, batch.String())
	for i := 0; i < 5; i++ {
		if _, body := readResponse(t, br, "GET"); body != fmt.Sprintf("GET /pipe/%d", i) {
			t.Fatalf("pipelined response %d: %q", i, body)
		}
	}
	if resp, body := readResponse(t, br, "HEAD"); body != "" || resp.ContentLength != int64(len("HEAD /pipe/head")) {
		t.Fatalf("HEAD: Content-Length %d, body %q", resp.ContentLength, body)
	}
	if _, body := readResponse(t, br, "POST"); body != "POST /pipe/post" {
		t.Fatalf("chunked POST: %q", body)
	}
	send(t, nc, "GET /after HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := readResponse(t, br, "GET"); body != "GET /after" {
		t.Fatalf("after the drained chunked body: %q", body)
	}
}

// TestServerHTTP10: an HTTP/1.0 request is answered and the connection
// closed, unless it asked for keep-alive.
func TestServerHTTP10(t *testing.T) {
	ts := newServer(t, okHandler)
	nc, br := ts.dial(t)
	send(t, nc, "GET /one HTTP/1.0\r\n\r\n")
	if resp, body := readResponse(t, br, "GET"); resp.StatusCode != 200 || body != "GET /one" {
		t.Fatalf("HTTP/1.0: %d %q", resp.StatusCode, body)
	}
	expectEOF(t, br)

	nc, br = ts.dial(t)
	for i := 0; i < 2; i++ {
		send(t, nc, "GET /ka HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
		resp, body := readResponse(t, br, "GET")
		if body != "GET /ka" || resp.Header.Get("Connection") != "keep-alive" {
			t.Fatalf("HTTP/1.0 keep-alive %d: %q, Connection %q", i, body, resp.Header.Get("Connection"))
		}
	}
}

// TestServerConnectionClose: "Connection: close" from the client or from
// the handler closes the connection after the response, which says so.
func TestServerConnectionClose(t *testing.T) {
	ts := newServer(t, okHandler)
	for name, req := range map[string]string{
		"client":  "GET /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"handler": "GET /close HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		nc, br := ts.dial(t)
		send(t, nc, req+"GET /never HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, _ := readResponse(t, br, "GET")
		if !resp.Close { // ReadResponse consumes the "Connection: close" it reads
			t.Errorf("%s: the response does not announce the close", name)
		}
		expectEOF(t, br)
	}
}

// TestServerRefusesBadHeads: a head over the limit gets 431 and a
// malformed one 400, each framed, and the connection closes.
func TestServerRefusesBadHeads(t *testing.T) {
	ts := newServer(t, okHandler)
	for _, tc := range []struct {
		name, head string
		status     int
	}{
		{"too-large", "GET / HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("p", 1<<20+8<<10) + "\r\n\r\n", 431},
		{"garbage", "\x16\x03\x01 not http at all\r\n\r\n", 400},
		{"no-host", "GET / HTTP/1.1\r\n\r\n", 400},
		{"bad-header", "GET / HTTP/1.1\r\nHost: x\r\nNo Colon Here\r\n\r\n", 400},
		{"http2", "GET / HTTP/2.0\r\nHost: x\r\n\r\n", 505},
		{"expect", "GET / HTTP/1.1\r\nHost: x\r\nExpect: tea\r\n\r\n", 417},
	} {
		nc, br := ts.dial(t)
		go io.WriteString(nc, tc.head) // the server may stop reading part-way
		resp, body := readResponse(t, br, "GET")
		if resp.StatusCode != tc.status || !resp.Close || !strings.HasPrefix(body, strconv.Itoa(tc.status)) {
			t.Errorf("%s: %d close=%v %q, want %d and a close", tc.name, resp.StatusCode, resp.Close, body, tc.status)
		}
		expectEOF(t, br)
	}
}

// TestServerRequestBodies: a body the handler leaves unread is drained and
// the connection kept; one past the drain bound closes it.
func TestServerRequestBodies(t *testing.T) {
	ts := newServer(t, okHandler)
	nc, br := ts.dial(t)
	small := strings.Repeat("s", 10<<10)
	send(t, nc, "POST /small HTTP/1.1\r\nHost: x\r\nContent-Length: "+strconv.Itoa(len(small))+"\r\n\r\n"+small)
	if resp, _ := readResponse(t, br, "POST"); resp.Close {
		t.Fatal("a 10 KiB body closed the connection")
	}
	send(t, nc, "GET /next HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := readResponse(t, br, "GET"); body != "GET /next" {
		t.Fatalf("after a drained body: %q", body)
	}

	nc, br = ts.dial(t)
	big := strings.Repeat("b", maxDrainBytes+10<<10)
	go io.WriteString(nc, "POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: "+strconv.Itoa(len(big))+"\r\n\r\n"+big)
	if resp, body := readResponse(t, br, "POST"); resp.StatusCode != 200 || body != "POST /big" || !resp.Close {
		t.Fatalf("past the drain bound: %d %q close=%v", resp.StatusCode, body, resp.Close)
	}
	expectEOF(t, br)
}

// TestServerHandlerPanicClosesOnlyItsConnection: a panicking handler is
// logged and its connection closed without a response; the server and
// its other connections carry on.
func TestServerHandlerPanicClosesOnlyItsConnection(t *testing.T) {
	logged := &syncBuffer{}
	prev := log.Writer()
	log.SetOutput(logged)
	defer log.SetOutput(prev)
	ts := newServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			w.Header().Set("X-Half", "written")
			io.WriteString(w, "partial")
			panic("corrupted state")
		}
		okHandler(w, r)
	}))
	other, otherBr := ts.dial(t)
	send(t, other, "GET /before HTTP/1.1\r\nHost: x\r\n\r\n")
	readResponse(t, otherBr, "GET")

	nc, br := ts.dial(t)
	send(t, nc, "GET /panic HTTP/1.1\r\nHost: x\r\n\r\n")
	expectEOF(t, br)
	if !strings.Contains(logged.String(), "panic serving") || !strings.Contains(logged.String(), "corrupted state") {
		t.Errorf("the panic was not logged: %q", logged.String())
	}

	send(t, other, "GET /after HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := readResponse(t, otherBr, "GET"); body != "GET /after" {
		t.Fatalf("the other connection after the panic: %q", body)
	}
	fresh, freshBr := ts.dial(t)
	send(t, fresh, "GET /fresh HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, body := readResponse(t, freshBr, "GET"); body != "GET /fresh" {
		t.Fatalf("a new connection after the panic: %q", body)
	}
}

// syncBuffer is a bytes.Buffer that a server goroutine may write while the
// test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerClose: Close is the in-process crash. It ends idle and
// in-flight connections alike, without a response to the one in flight,
// and Serve returns http.ErrServerClosed.
func TestServerClose(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	ts := newServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		okHandler(w, r)
	}))
	idle, idleBR := ts.dial(t)
	send(t, idle, "GET /warm HTTP/1.1\r\nHost: x\r\n\r\n")
	readResponse(t, idleBR, "GET")
	busy, busyBR := ts.dial(t)
	send(t, busy, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered

	ts.Close()
	expectEOF(t, idleBR)
	expectEOF(t, busyBR)
	if err := <-ts.done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := net.Dial("tcp", ts.addr); err == nil {
		t.Error("the listener still accepts after Close")
	}
}

// memConn is a net.Conn over memory. Reads come from in and end in io.EOF,
// as from a client that sent everything and half-closed; writes go to out.
type memConn struct {
	in     io.Reader
	out    io.Writer
	closed bool
}

func (c *memConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.in.Read(p)
}

func (c *memConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.out.Write(p)
}

func (c *memConn) Close() error                       { c.closed = true; return nil }
func (c *memConn) LocalAddr() net.Addr                { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr               { return memAddr{} }
func (c *memConn) SetDeadline(t time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// TestServerDropsLargeBuffers: a connection does not keep the buffers a
// large response grew.
func TestServerDropsLargeBuffers(t *testing.T) {
	big := strings.Repeat("x", 4*maxKeptBuffer)
	s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/big" {
			io.WriteString(w, big)
		}
	})}
	var out bytes.Buffer
	c := s.newConn(&memConn{in: strings.NewReader("GET /big HTTP/1.1\r\nHost: x\r\n\r\nGET /small HTTP/1.1\r\nHost: x\r\n\r\n"), out: &out})
	if !c.serveRequest() || out.Len() < len(big) {
		t.Fatalf("the large response was not written: %d bytes", out.Len())
	}
	if cap(c.resp.out) > maxKeptBuffer || cap(c.resp.body) > maxKeptBuffer {
		t.Errorf("the connection kept %d + %d bytes of buffer after a %d-byte response", cap(c.resp.out), cap(c.resp.body), len(big))
	}
	if !c.serveRequest() {
		t.Fatal("the next request on the connection failed")
	}
}

// padding reads as an endless run of 'p'.
type padding struct{}

func (padding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'p'
	}
	return len(p), nil
}

// fuzzCall is one request the fuzz handler saw.
type fuzzCall struct{ method, body string }

// FuzzServeConn feeds arbitrary bytes — in, with pad bytes of padding
// spliced in at offset at — to one connection of a Server and reads back
// what it wrote. Nothing may panic out of the loop; every
// response starts "HTTP/1.1 " and carries exactly one Content-Length, equal
// to its body; the handler's responses come back in request order; and a
// response of the loop's own (400, 431, ...) is the last thing written.
// The client side is an in-memory connection rather than net.Pipe: its
// input ends in EOF, a half-close, which net.Pipe cannot express.
func FuzzServeConn(f *testing.F) {
	host := "Host: x\r\n"
	for _, seed := range []string{
		"GET /a HTTP/1.1\r\n" + host + "\r\nGET /b?q=%41 HTTP/1.1\r\n" + host + "\r\nHEAD /c HTTP/1.1\r\n" + host + "\r\n",
		"GET /old HTTP/1.0\r\n\r\nGET /ignored HTTP/1.0\r\n\r\n",
		"GET /ka HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /ka2 HTTP/1.0\r\n\r\n",
		"GET /bye HTTP/1.1\r\n" + host + "Connection: close\r\n\r\nGET /ignored HTTP/1.1\r\n" + host + "\r\n",
		"POST /chunked HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\nGET /next HTTP/1.1\r\n" + host + "\r\n",
		"POST /cl HTTP/1.1\r\n" + host + "Content-Length: 3\r\n\r\nabcGET /next HTTP/1.1\r\n" + host + "\r\n",
		"PUT /expect HTTP/1.1\r\n" + host + "Expect: 100-continue\r\nContent-Length: 4\r\n\r\nbody",
		"GET /panic HTTP/1.1\r\n" + host + "\r\nGET /never HTTP/1.1\r\n" + host + "\r\n",
		"\x00\xff garbage \r\n\r\n",
		"GET / HTTP/1.1\r\n" + host,
		"",
	} {
		f.Add([]byte(seed), uint32(0), uint32(0))
	}
	// An oversized head: the padding is spliced in by the harness, since
	// a megabyte-long corpus entry stalls the fuzzing engine.
	over := "GET /big HTTP/1.1\r\n" + host + "X-Pad: \r\n\r\n"
	f.Add([]byte(over), uint32(maxHeadBytes), uint32(len(over)-4))
	f.Fuzz(func(t *testing.T, in []byte, pad, at uint32) {
		var calls []fuzzCall
		s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/panic" {
				panic(http.ErrAbortHandler) // not logged: the fuzzer would drown in stacks
			}
			body := r.Method + " " + r.RequestURI
			calls = append(calls, fuzzCall{r.Method, body})
			io.WriteString(w, body)
		})}
		var out bytes.Buffer
		split := min(int(at), len(in))
		input := io.MultiReader(bytes.NewReader(in[:split]),
			io.LimitReader(padding{}, int64(min(pad, maxHeadBytes+4096))), bytes.NewReader(in[split:]))
		mc := &memConn{in: input, out: &out}
		if c := s.newConn(mc); c != nil {
			c.serve()
		}
		if !mc.closed {
			t.Fatal("the loop returned without closing the connection")
		}

		br := bufio.NewReader(bytes.NewReader(out.Bytes()))
		for i := 0; ; i++ {
			if _, err := br.Peek(1); err == io.EOF {
				if i < len(calls) {
					t.Fatalf("%d handler calls, %d responses", len(calls), i)
				}
				return
			}
			if p, _ := br.Peek(9); string(p) != "HTTP/1.1 " {
				t.Fatalf("response %d starts %q", i, p)
			}
			method := http.MethodGet
			if i < len(calls) {
				method = calls[i].method
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("response %d body: %v", i, err)
			}
			cl := resp.Header["Content-Length"]
			if len(cl) != 1 {
				t.Fatalf("response %d carries Content-Length %q", i, cl)
			}
			if i >= len(calls) {
				// The loop's own refusal: it ends the connection.
				if resp.StatusCode == http.StatusOK || !resp.Close {
					t.Fatalf("response %d (%d) has no request behind it and does not close", i, resp.StatusCode)
				}
				if rest, _ := io.ReadAll(br); len(rest) > 0 {
					t.Fatalf("%d bytes written after a %d", len(rest), resp.StatusCode)
				}
				if cl[0] != strconv.Itoa(len(body)) {
					t.Fatalf("refusal: Content-Length %s, %d-byte body", cl[0], len(body))
				}
				return
			}
			want := calls[i].body
			if resp.StatusCode != http.StatusOK || cl[0] != strconv.Itoa(len(want)) {
				t.Fatalf("response %d: %d, Content-Length %s; want 200 and %d", i, resp.StatusCode, cl[0], len(want))
			}
			if method == http.MethodHead {
				want = ""
			}
			if string(body) != want {
				t.Fatalf("response %d body %q, want %q", i, body, want)
			}
		}
	})
}
