package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	const want = "<html>item 7: item-7,"
	good := []byte("<html>item 7: item-7, max bid 3.00, 11 bids</html>\n")
	for _, c := range []struct {
		name       string
		status     int
		retryAfter int
		body       []byte
		err        error
		idempotent bool
		verdict    verdict
		wait       time.Duration
	}{
		{"validated 200", 200, -1, good, nil, true, vOK, 0},
		{"200 naming another item", 200, -1, []byte("<html>item 8: item-8, max bid 3.00, 11 bids</html>"), nil, true, vBadBody, 0},
		{"200 reporting a failure", 200, -1, []byte("<html>item 7: item-7, NullPointerException</html>"), nil, true, vBadBody, 0},
		{"503 with Retry-After, idempotent", 503, 1, []byte("component recovering: ViewItem"), nil, true, vRetryAfter, time.Second},
		{"503 with Retry-After, not idempotent", 503, 1, []byte("component recovering: MakeBid"), nil, false, vFail, 0},
		{"503 without Retry-After", 503, -1, nil, nil, true, vFail, 0},
		{"401", 401, -1, []byte("session lapsed"), nil, false, vRelogin, 0},
		{"500 lock conflict", 500, -1, []byte("db: lock conflict: row 4 of id_seq held by tx 9"), nil, false, vConflict, 0},
		{"500 otherwise", 500, -1, []byte("ebid: CommitBid: no item selected"), nil, false, vFail, 0},
		{"502", 502, -1, []byte("no backend reachable"), nil, true, vFail, 0},
		{"transport error", 0, -1, nil, errors.New("read: connection reset"), true, vFail, 0},
	} {
		v, wait := classify(c.status, c.retryAfter, c.body, c.err, c.idempotent, want)
		if v != c.verdict || wait != c.wait {
			t.Errorf("%s: %v after %v, want %v after %v", c.name, v, wait, c.verdict, c.wait)
		}
	}
}

func TestContainsFold(t *testing.T) {
	if !containsFold([]byte("an Internal ERROR occurred"), "error") {
		t.Error("missed ERROR")
	}
	if containsFold([]byte("feedback committed for user 3"), "failed") {
		t.Error("found a failure in a clean body")
	}
}

// The hand-written response reader against a real net/http server: bodies
// with a length and chunked ones, the session cookie, Retry-After, and the
// connection surviving all of them.
func TestConnReadsRealResponses(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1024) // past the server's 4 KiB buffer, so it is chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/cookie":
			http.SetCookie(w, &http.Cookie{Name: "EBIDSESSION", Value: "http-abc123", Path: "/"})
			fmt.Fprintln(w, "hello")
		case "/echo":
			c, _ := r.Cookie("EBIDSESSION")
			fmt.Fprintf(w, "cookie=%s id=%s", c.Value, r.Header.Get(traceHeader))
		case "/busy":
			w.Header().Set("Retry-After", "2")
			http.Error(w, "component recovering: WAR", http.StatusServiceUnavailable)
		case "/big":
			fmt.Fprint(w, big)
		}
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()

	r, err := c.get("/cookie", "", -1)
	if err != nil || r.status != 200 || string(r.setCookie) != "http-abc123" || string(r.body) != "hello\n" {
		t.Fatalf("cookie: %+v, %v", r, err)
	}
	r, err = c.get("/echo", "http-abc123", 42)
	if err != nil || string(r.body) != "cookie=http-abc123 id=42" || r.setCookie != nil {
		t.Fatalf("echo: %q, %v", r.body, err)
	}
	r, err = c.get("/busy", "", -1)
	if err != nil || r.status != 503 || r.retryAfter != 2 {
		t.Fatalf("busy: %+v, %v", r, err)
	}
	r, err = c.get("/big", "", -1)
	if err != nil || string(r.body) != big {
		t.Fatalf("big: %d bytes, %v", len(r.body), err)
	}
	r, err = c.get("/cookie", "", -1)
	if err != nil || string(r.body) != "hello\n" {
		t.Fatalf("after a chunked body: %q, %v", r.body, err)
	}

	// A dead peer is an error, and the next request redials.
	srv.CloseClientConnections()
	if _, err := c.get("/cookie", "", -1); err == nil {
		t.Error("no error from a closed connection")
	}
	if r, err := c.get("/cookie", "", -1); err != nil || r.status != 200 {
		t.Errorf("after redial: %+v, %v", r, err)
	}
}
