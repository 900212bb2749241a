package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven synchronously: one
// request in flight, no per-request allocation, and plain blocking
// read(2)/write(2) on the socket. The last point matters as much as the
// others: through the Go netpoller a response wakes the poller thread,
// which readies the goroutine, which waits for a thread to run on — two
// scheduler hops of tens of microseconds each, charged to every latency.
// A blocked read is woken by the kernel directly.
type conn struct {
	addr string
	nc   *os.File // the socket in blocking mode; nil when not connected
	fd   int
	br   *bufio.Reader
	wbuf []byte
	body []byte
	jar  []byte // last Set-Cookie value; header lines do not survive the body read
}

// response is what the load generator needs from an HTTP response. body
// and setCookie alias the connection's buffers and are valid until the
// next request on it.
type response struct {
	status     int
	retryAfter int    // seconds; -1 when the header is absent
	setCookie  []byte // EBIDSESSION value, when the server assigned one
	body       []byte
}

const ioTimeout = 10 * time.Second

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.nc != nil {
		_ = c.nc.Close() // nothing to flush: requests are written whole
		c.nc = nil
	}
}

func (c *conn) dial() error {
	nc, err := net.DialTimeout("tcp", c.addr, time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	// File duplicates the descriptor; Fd puts the duplicate in blocking
	// mode. The netpoller's copy is closed and never used.
	f, err := nc.(*net.TCPConn).File()
	_ = nc.Close() // the duplicate keeps the connection open
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	c.nc, c.fd = f, int(f.Fd())
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(c.fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
			c.close()
			return fmt.Errorf("dial %s: %w", c.addr, err)
		}
	}
	if c.br == nil {
		c.br = bufio.NewReaderSize(c, 8<<10)
	} else {
		c.br.Reset(c)
	}
	return nil
}

// Read implements io.Reader with a blocking read(2).
func (c *conn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err // EAGAIN here is the receive timeout
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *conn) write(b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(c.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// get sends one GET and reads the whole response. Any error closes the
// connection; the next call redials.
func (c *conn) get(path string, cookie string, reqID int64) (response, error) {
	if c.nc == nil {
		if err := c.dial(); err != nil {
			return response{}, err
		}
	}
	b := append(c.wbuf[:0], "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if cookie != "" {
		b = append(b, "Cookie: EBIDSESSION="...)
		b = append(b, cookie...)
		b = append(b, "\r\n"...)
	}
	if reqID >= 0 {
		b = append(b, traceHeader+": "...)
		b = strconv.AppendInt(b, reqID, 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.wbuf = b
	if err := c.write(b); err != nil {
		c.close()
		return response{}, fmt.Errorf("write: %w", err)
	}
	r, err := c.read()
	if err != nil {
		c.close()
		return response{}, err
	}
	return r, nil
}

var (
	hdrContentLength = []byte("content-length")
	hdrRetryAfter    = []byte("retry-after")
	hdrSetCookie     = []byte("set-cookie")
	hdrTransferEnc   = []byte("transfer-encoding")
	hdrConnection    = []byte("connection")
	sessionCookie    = []byte("EBIDSESSION=")
)

func (c *conn) read() (response, error) {
	r := response{retryAfter: -1}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return r, fmt.Errorf("read status: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return r, fmt.Errorf("malformed status line %q", line)
	}
	r.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return r, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closeAfter := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return r, fmt.Errorf("read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return r, fmt.Errorf("malformed header %q", line)
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, hdrContentLength):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return r, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(key, hdrRetryAfter):
			if n, err := strconv.Atoi(string(val)); err == nil && n >= 0 {
				r.retryAfter = n
			}
		case bytes.EqualFold(key, hdrTransferEnc):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(key, hdrConnection):
			closeAfter = bytes.EqualFold(val, []byte("close"))
		case bytes.EqualFold(key, hdrSetCookie):
			if bytes.HasPrefix(val, sessionCookie) {
				v := val[len(sessionCookie):]
				if semi := bytes.IndexByte(v, ';'); semi >= 0 {
					v = v[:semi]
				}
				c.jar = append(c.jar[:0], v...)
				r.setCookie = c.jar
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return r, fmt.Errorf("read chunk size: %w", err)
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if err != nil || n < 0 {
				return r, fmt.Errorf("bad chunk size %q", line)
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return r, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return r, err
		}
	default:
		rest, err := io.ReadAll(c.br)
		if err != nil {
			return r, fmt.Errorf("read body: %w", err)
		}
		c.body = append(c.body, rest...)
		closeAfter = true
	}
	r.body = c.body
	if closeAfter {
		c.close()
	}
	return r, nil
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body)-at < n {
		grown := make([]byte, at, at+n+1024)
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

// verdict is what the client policy makes of one response.
type verdict int

const (
	vOK         verdict = iota // validated 200
	vRetryAfter                // 503 + Retry-After on an idempotent op: wait, then reissue
	vRelogin                   // 401: the session is gone; log in again and repeat once
	vConflict                  // 500 "lock conflict": the store's fail-fast retry
	vBadBody                   // a 200 whose body is not the requested page: a failure, and a correctness violation
	vFail                      // anything else: the user saw a failure
)

func (v verdict) String() string {
	return [...]string{"ok", "retry-after", "relogin", "conflict", "bad-body", "fail"}[v]
}

// classify applies the client policy of the paper's §6.2 and the
// crash-only contract to one attempt. want is the substring a correct
// body must contain. It returns the wait a vRetryAfter asks for.
func classify(status, retryAfter int, body []byte, err error, idempotent bool, want string) (verdict, time.Duration) {
	switch {
	case err != nil:
		return vFail, 0
	case status == 200:
		if !containsStr(body, want) || looksFaulty(body) {
			return vBadBody, 0
		}
		return vOK, 0
	case status == 503 && retryAfter >= 0 && idempotent:
		return vRetryAfter, time.Duration(retryAfter) * time.Second
	case status == 401:
		return vRelogin, 0
	case status == 500 && bytes.Contains(body, []byte("lock conflict")):
		return vConflict, 0
	}
	return vFail, 0
}

// containsStr is bytes.Contains for a string needle, without the
// conversion's allocation.
func containsStr(b []byte, s string) bool {
	for i := 0; i+len(s) <= len(b); i++ {
		if string(b[i:i+len(s)]) == s {
			return true
		}
	}
	return false
}

// looksFaulty is cmd/loadgen's keyword scan: a 200 whose HTML mentions a
// failure is a failure the user saw.
func looksFaulty(body []byte) bool {
	return containsFold(body, "exception") || containsFold(body, "error") || containsFold(body, "failed")
}

// containsFold reports whether body contains the lower-case ASCII word,
// ignoring case, without allocating.
func containsFold(body []byte, word string) bool {
	n := len(word)
outer:
	for i := 0; i+n <= len(body); i++ {
		for j := 0; j < n; j++ {
			c := body[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != word[j] {
				continue outer
			}
		}
		return true
	}
	return false
}
