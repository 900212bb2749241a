package httpfront

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves one http.Handler — Front.Handler() in cmd/ebid-server,
// the router and admin mux in cmd/ebid-proxy — over HTTP/1.1 on its own
// keep-alive loop: one goroutine per connection, which reads a request,
// runs the handler, writes the response and reads the next. What is left
// out is http.Server's per-request machinery (a background-read goroutine,
// a cancellable context, a chunking writer and a header clone per
// response).
//
// A request head of the form eBid's clients send — a bodiless GET or HEAD
// of an origin-form target whose path needs no decoding, with CRLF header
// lines, wholly in the connection's read buffer — is parsed where it sits,
// into an http.Request, URL and Header the connection reuses; the string
// holding the head is its one allocation. Every other head goes to
// http.ReadRequest unchanged, so bodies, trailers, large heads,
// percent-encoded paths and malformed heads keep net/http's rules, and
// FuzzReadHead holds the fast path to what http.ReadRequest gives for the
// same bytes.
//
// A handler must therefore not keep the *http.Request, its URL or its
// Header after it returns: the next request on the connection refills
// them. The strings it read from them stay valid.
//
// The handler writes into a buffer the connection reuses, and the response
// goes out in one write when the handler returns: a status line, the
// handler's header fields, Date, a sniffed Content-Type when the handler
// set none, and a Content-Length on every response whose status allows a
// body. Nothing is written before the handler returns, so handlers that
// stream (none here does) see their output only at the end. HEAD responses
// carry no body. A handler may not use its ResponseWriter after it returns.
//
// A request's context is context.Background: it does not end when the
// client disconnects. Each binary's own mechanisms end an operation, and
// none needs the connection: in the front, the execution lease bound by
// serveOp and a microreboot that kills the request's shepherd; in the
// proxy, the backend exchange's deadline.
//
// Connection handling follows http.Server: keep-alive for HTTP/1.1,
// pipelined requests answered in order, HTTP/1.0 closed after one response
// unless it asks for keep-alive, and "Connection: close" honoured from
// either side. After the handler returns, up to 256 KiB of an unread request
// body is drained; a larger or malformed body closes the connection. A
// request head larger than http.DefaultMaxHeaderBytes is answered 431 and
// a malformed one 400, and both close the connection. A panicking handler
// is logged and closes only its own connection.
type Server struct {
	Handler http.Handler

	closing atomic.Bool
	date    atomic.Pointer[dateLine] // the Date value of the current second

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
}

const (
	// maxHeadBytes is how much of a request head is read before it is
	// refused with 431: http.Server's allowance for its default
	// MaxHeaderBytes, which includes bufio's read-ahead.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4096
	// maxDrainBytes bounds how much of a request body the handler left
	// unread is discarded to keep the connection (http.Server's bound).
	maxDrainBytes = 256 << 10
	// maxKeptBuffer is the largest response buffer a connection keeps for
	// its next request; a larger one (a pprof profile) goes to the GC.
	maxKeptBuffer = 64 << 10
	// readBufferSize is the size of a connection's read buffer, and so
	// the largest head the fast path reads.
	readBufferSize = 4 << 10
	// lingerTimeout bounds how long a connection closed with unread input
	// keeps reading it, so that the client sees the response rather than
	// a reset.
	lingerTimeout = 500 * time.Millisecond
)

// Serve accepts connections on l and serves each on its own goroutine. It
// returns http.ErrServerClosed after Close, and otherwise the error that
// ended the listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		l.Close()
		return http.ErrServerClosed
	}
	if s.listeners == nil {
		s.listeners = map[net.Listener]struct{}{}
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	var backoff time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of file descriptors and the like: wait, as http.Server does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			log.Printf("httpfront: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if c := s.newConn(nc); c != nil {
			go c.serve()
		}
	}
}

// Close stops accepting and closes every connection, whatever it is doing:
// the in-process crash. There is no graceful stop; a binary serving on a
// Server stops by dying, and its clients see what a crash shows them.
func (s *Server) Close() error {
	s.closing.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for l := range s.listeners {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	for c := range s.conns {
		c.nc.Close()
	}
	return err
}

// newConn registers nc, or closes it and returns nil once the server is
// closing.
func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{srv: s, nc: nc}
	if ra := nc.RemoteAddr(); ra != nil {
		c.remote = ra.String()
	}
	c.lr.R = nc
	c.br = bufio.NewReaderSize(&c.lr, readBufferSize)
	c.simple.hdr = http.Header{}
	c.resp.hdr = http.Header{}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		nc.Close()
		return nil
	}
	if s.conns == nil {
		s.conns = map[*conn]struct{}{}
	}
	s.conns[c] = struct{}{}
	return c
}

func (s *Server) forget(c *conn) {
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one client connection and everything it reuses from one request
// to the next.
type conn struct {
	srv    *Server
	nc     net.Conn
	remote string
	lr     io.LimitedReader
	br     *bufio.Reader // reads through lr
	simple simpleRequest // the request the fast path fills
	resp   response
}

func (c *conn) serve() {
	defer c.srv.forget(c)
	for c.serveRequest() {
	}
}

// serveRequest waits for a request, reads it, runs the handler and writes
// the response. It reports whether the connection stays open for another.
func (c *conn) serveRequest() bool {
	c.lr.N = maxHeadBytes
	if _, err := c.br.Peek(1); err != nil {
		return false // the client left, or Close closed the connection
	}
	req := c.simple.read(c.br)
	if req == nil {
		var err error
		if req, err = http.ReadRequest(c.br); err != nil {
			if c.lr.N <= 0 {
				c.refuse(http.StatusRequestHeaderFieldsTooLarge, "")
				c.lingerClose()
			} else {
				c.refuse(http.StatusBadRequest, "")
			}
			return false
		}
	}
	c.lr.N = math.MaxInt64
	switch {
	case req.ProtoMajor != 1:
		c.refuse(http.StatusHTTPVersionNotSupported, "unsupported protocol version")
		return false
	case req.ProtoMinor >= 1 && req.Host == "":
		c.refuse(http.StatusBadRequest, "missing required Host header")
		return false
	}
	expectContinue := false
	if e := req.Header["Expect"]; len(e) > 0 {
		if len(e) > 1 || !strings.EqualFold(e[0], "100-continue") {
			c.refuse(http.StatusExpectationFailed, "")
			return false
		}
		expectContinue = true
	}
	req.RemoteAddr = c.remote

	w := &c.resp
	w.reset(req)
	if !c.runHandler(w, req) {
		return false
	}
	closeAfter := req.Close || w.closeConn
	linger := false
	if req.Body != http.NoBody {
		if expectContinue {
			// No 100 Continue was sent, so the client may or may not be
			// sending the body: what follows on the wire is unknown.
			closeAfter, linger = true, true
		} else if _, err := io.CopyN(io.Discard, req.Body, maxDrainBytes+1); err != io.EOF {
			closeAfter, linger = true, err == nil // nil: more than the bound is left
		}
	}
	_, err := c.nc.Write(w.finish(closeAfter, c.srv.dateNow()))
	w.release()
	if err != nil || !closeAfter {
		return err == nil
	}
	if linger {
		c.lingerClose()
	}
	return false
}

// runHandler runs the handler, and reports false if it panicked: the panic
// is logged, as http.Server logs it, and the connection is to be closed
// without a response.
func (c *conn) runHandler(w *response, req *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
			if p != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("httpfront: panic serving %s: %v\n%s", c.remote, p, buf)
			}
		}
	}()
	c.srv.Handler.ServeHTTP(w, req)
	return true
}

// refuse answers a request the loop cannot hand to the handler. The
// connection is closed after it.
func (c *conn) refuse(code int, detail string) {
	msg := strconv.Itoa(code) + " " + http.StatusText(code)
	if detail != "" {
		msg += ": " + detail
	}
	_, _ = fmt.Fprintf(c.nc, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		code, http.StatusText(code), len(msg), msg) // a failed write has nobody to tell
}

// lingerClose half-closes a connection that may still have unread input
// and reads that input for a while, so that closing it does not reset the
// response the client has yet to read.
func (c *conn) lingerClose() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		_ = c.nc.SetReadDeadline(time.Now().Add(lingerTimeout)) // a conn that refuses it is closed next anyway
		_, _ = io.Copy(io.Discard, c.nc)
	}
}

// response is the http.ResponseWriter a connection reuses. WriteHeader
// formats the status line and the handler's header fields into out at
// once, so later header changes are ignored as they are by http.Server;
// the body collects in body until finish frames it.
type response struct {
	hdr     http.Header
	status  int
	out     []byte
	body    []byte
	keys    []string
	isHEAD  bool
	keep10  bool // an HTTP/1.0 request that asked for keep-alive
	hasType bool // the handler set Content-Type or Content-Encoding: no sniffing
	hasDate bool
	// closeConn: the handler's header said "Connection: close".
	closeConn bool
	// headLen is the Content-Length a handler declared, for a HEAD
	// response it wrote no body for (-1 when none).
	headLen int64
}

func (w *response) reset(req *http.Request) {
	clear(w.hdr)
	w.status = 0
	w.out, w.body = w.out[:0], w.body[:0]
	w.isHEAD = req.Method == http.MethodHead
	w.keep10 = req.ProtoMinor == 0 && !req.Close
	w.hasType, w.hasDate, w.closeConn = false, false, false
	w.headLen = -1
}

// release drops a buffer that a large response grew.
func (w *response) release() {
	if cap(w.out) > maxKeptBuffer {
		w.out = nil
	}
	if cap(w.body) > maxKeptBuffer {
		w.body = nil
	}
}

// Header implements http.ResponseWriter.
func (w *response) Header() http.Header { return w.hdr }

// Write implements http.ResponseWriter.
func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// WriteHeader implements http.ResponseWriter. Informational (1xx) statuses
// are not sent.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status != 0 || code < 200 {
		return
	}
	w.status = code
	out := append(w.out[:0], "HTTP/1.1 "...)
	out = strconv.AppendInt(out, int64(code), 10)
	out = append(out, ' ')
	if text := http.StatusText(code); text != "" {
		out = append(out, text...)
	} else {
		out = append(out, "status code "...)
		out = strconv.AppendInt(out, int64(code), 10)
	}
	out = append(out, "\r\n"...)

	keys := w.keys[:0]
	for k := range w.hdr {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		vals := w.hdr[k]
		switch k {
		case "Content-Length":
			if len(vals) > 0 {
				if n, err := strconv.ParseInt(textproto.TrimString(vals[0]), 10, 64); err == nil && n >= 0 {
					w.headLen = n
				}
			}
			continue // every response is framed here
		case "Connection":
			for _, v := range vals {
				for _, tok := range strings.Split(v, ",") {
					w.closeConn = w.closeConn || strings.EqualFold(textproto.TrimString(tok), "close")
				}
			}
			continue
		case "Transfer-Encoding", "Trailer":
			continue
		case "Content-Type":
			w.hasType = true
		case "Content-Encoding":
			w.hasType = w.hasType || w.hdr.Get(k) != ""
		case "Date":
			w.hasDate = true
		}
		if strings.HasPrefix(k, http.TrailerPrefix) || !validFieldName(k) {
			continue
		}
		for _, v := range vals {
			out = append(out, k...)
			out = append(out, ": "...)
			out = appendFieldValue(out, v)
			out = append(out, "\r\n"...)
		}
	}
	w.keys = keys
	w.out = out
}

// finish completes the head and appends the body, returning the whole
// response. closeAfter announces that the connection closes after it;
// date is the Date value to send unless the handler set its own.
func (w *response) finish(closeAfter bool, date []byte) []byte {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	out := w.out
	if !w.hasDate {
		out = append(out, "Date: "...)
		out = append(out, date...)
		out = append(out, "\r\n"...)
	}
	withBody := bodyAllowed(w.status)
	if withBody {
		if !w.hasType && len(w.body) > 0 {
			out = append(out, "Content-Type: "...)
			out = append(out, http.DetectContentType(w.body)...)
			out = append(out, "\r\n"...)
		}
		n := int64(len(w.body))
		if w.isHEAD && n == 0 && w.headLen >= 0 {
			n = w.headLen
		}
		out = append(out, "Content-Length: "...)
		out = strconv.AppendInt(out, n, 10)
		out = append(out, "\r\n"...)
	}
	switch {
	case closeAfter:
		out = append(out, "Connection: close\r\n"...)
	case w.keep10:
		out = append(out, "Connection: keep-alive\r\n"...)
	}
	out = append(out, "\r\n"...)
	if withBody && !w.isHEAD {
		out = append(out, w.body...)
	}
	w.out = out
	return out
}

// bodyAllowed reports whether a response with this status may carry a
// body (and so a Content-Length).
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// validFieldName reports whether k is an RFC 9110 token; a header field
// whose name is not one is not sent.
func validFieldName(k string) bool {
	return k != "" && allBytes(k, tokenByte)
}

// appendFieldValue appends a header field value with CR and LF turned into
// spaces and the surrounding whitespace trimmed, as http.Header.Write does,
// so that a value can never end the field early.
func appendFieldValue(out []byte, v string) []byte {
	v = textproto.TrimString(v)
	if !strings.ContainsAny(v, "\r\n") {
		return append(out, v...)
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		out = append(out, c)
	}
	return out
}

// dateLine is the Date header value for one second.
type dateLine struct {
	unix int64
	text []byte
}

// dateNow returns the current time in HTTP's format, formatting it at most
// once a second.
func (s *Server) dateNow() []byte {
	now := time.Now()
	d := s.date.Load()
	if d == nil || d.unix != now.Unix() {
		d = &dateLine{unix: now.Unix(), text: now.UTC().AppendFormat(nil, http.TimeFormat)}
		s.date.Store(d)
	}
	return d.text
}
