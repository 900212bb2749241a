//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package httpfront

import (
	"io"
	"net/http"
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
// around a handler that does nothing. It measures 9, all of them
// http.ReadRequest's (the request, its URL, header map and strings);
// http.Server spends 14 on the same request, adding a cancellable context,
// a response and its writers.
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
	if allocs := testing.AllocsPerRun(500, serve); allocs > 11 {
		t.Errorf("the loop allocates %.1f times per request, want <= 11", allocs)
	}
}
