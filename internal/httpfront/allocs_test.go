//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package httpfront

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// requestLoop reads one request over and over, as a keep-alive client
// that never stops sending would.
type requestLoop struct {
	req []byte
	off int
}

func (r *requestLoop) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.req[r.off:])
		n += c
		r.off = (r.off + c) % len(r.req)
	}
	return n, nil
}

// TestServeConnAllocs is the allocation ceiling of the keep-alive loop
// around a handler that does nothing. It measures 1: the head's fast path
// reads it into the connection's reused request, and the string holding
// the head is the one allocation. http.ReadRequest spent 9 on the same
// request (the request, its URL, header map and strings), and http.Server
// 14, adding a cancellable context, a response and its writers.
func TestServeConnAllocs(t *testing.T) {
	s := &Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	req := "GET /ebid/ViewItem?item=7 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: bench\r\nCookie: EBIDSESSION=http-0123456789abcdef0123456789abcdef\r\n\r\n"
	c := s.newConn(&memConn{in: &requestLoop{req: []byte(req)}, out: io.Discard})
	serve := func() {
		if !c.serveRequest() {
			t.Fatal("the connection closed")
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(500, serve); allocs > 3 {
		t.Errorf("the loop allocates %.1f times per request, want <= 3", allocs)
	}
}

// TestServeViewItemAllocs is the allocation ceiling of one eBid operation
// end to end on a connection: a ViewItem from an established session, read
// by Server and run by Front.Handler(). It measures 2: the head's string
// and the request's ebid.OpArgs. With the handler setting its own
// Content-Length it measured 3.
func TestServeViewItemAllocs(t *testing.T) {
	s := &Server{Handler: newFront(t).Handler()}
	req := "GET /ebid/ViewItem?item=7 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: bench\r\nCookie: EBIDSESSION=http-0123456789abcdef0123456789abcdef\r\n\r\n"
	var out firstWriter
	c := s.newConn(&memConn{in: &requestLoop{req: []byte(req)}, out: &out})
	serve := func() {
		if !c.serveRequest() {
			t.Fatal("the connection closed")
		}
	}
	serve()
	if !strings.HasPrefix(out.first, "HTTP/1.1 200 ") {
		t.Fatalf("ViewItem answered %.40q", out.first)
	}
	if allocs := testing.AllocsPerRun(500, serve); allocs > 4 {
		t.Errorf("a ViewItem allocates %.1f times per request, want <= 4", allocs)
	}
}

// firstWriter keeps the first write and discards the rest.
type firstWriter struct{ first string }

func (w *firstWriter) Write(p []byte) (int, error) {
	if w.first == "" {
		w.first = string(p)
	}
	return len(p), nil
}
