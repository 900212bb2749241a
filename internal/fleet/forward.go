package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"strconv"
	"time"

	"repro/internal/httpfront"
)

const (
	// maxIdleConns caps the idle connections kept per backend.
	maxIdleConns = 256
	// exchangeTimeout bounds one request/response exchange with a backend,
	// and a dial.
	exchangeTimeout = 30 * time.Second
	// maxHeaderFields bounds a response head; a line longer than the
	// connection's read buffer is refused by bufio itself.
	maxHeaderFields = 64
)

var (
	errMalformedHead = errors.New("fleet: malformed response head from backend")
	dialer           = net.Dialer{Timeout: exchangeTimeout}
)

// backendConn is one persistent connection to a backend. A request owns
// it for a whole exchange and drives it synchronously from the handler's
// goroutine; between exchanges it sits in the backend's idle list.
type backendConn struct {
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	reused bool     // taken from the idle list: the backend may have closed it since
	head   respHead // the response being relayed
}

func (b *Backend) dial() (*backendConn, error) {
	nc, err := dialer.Dial("tcp", b.addr)
	if err != nil {
		return nil, err
	}
	return &backendConn{nc: nc, br: bufio.NewReaderSize(nc, 8<<10), bw: bufio.NewWriterSize(nc, 4<<10)}, nil
}

// getConn takes the most recently used idle connection (the one whose
// buffers and socket are warmest), or dials.
func (b *Backend) getConn() (*backendConn, error) {
	b.poolMu.Lock()
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
		b.poolMu.Unlock()
		c.reused = true
		return c, nil
	}
	b.poolMu.Unlock()
	return b.dial()
}

// putConn returns a connection whose exchange ended cleanly. A backend
// that has been marked down since keeps no connections.
func (b *Backend) putConn(c *backendConn) {
	b.poolMu.Lock()
	keep := b.healthy.Load() && len(b.idle) < maxIdleConns
	if keep {
		b.idle = append(b.idle, c)
	}
	b.poolMu.Unlock()
	if !keep {
		c.nc.Close()
	}
}

// markDown records a failed poll or exchange, or the process's exit: no
// new traffic, and the idle connections — to a process that is gone or
// wedged — are dropped.
func (b *Backend) markDown() {
	b.healthy.Store(false)
	b.dropIdle()
}

func (b *Backend) dropIdle() {
	b.poolMu.Lock()
	idle := b.idle
	b.idle = nil
	b.poolMu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// exchange sends req's head to the backend and parses the response head
// into c.head. The request line and headers are written straight from
// the inbound request; the framing headers belong to each hop and are
// not passed on (the router refuses bodies, so there is nothing to
// frame). answered reports whether any response byte arrived. On error
// the connection has been closed: its state is unknown.
//
// Only the deadline, the backend's lease and its answer end an exchange: a
// client that hangs up meanwhile is found out when its response is
// written.
func (c *backendConn) exchange(req *http.Request, host string) (answered bool, err error) {
	_ = c.nc.SetDeadline(time.Now().Add(exchangeTimeout)) // fails only on a closed conn, which the write reports
	target := req.RequestURI
	if target == "" || target[0] != '/' {
		target = req.URL.RequestURI()
	}
	bw := c.bw
	bw.WriteString(req.Method)
	bw.WriteByte(' ')
	bw.WriteString(target)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	bw.WriteString("\r\n")
	for name, values := range req.Header {
		switch name {
		case "Content-Length", "Transfer-Encoding", "Trailer", "Connection":
			continue
		}
		for _, v := range values {
			bw.WriteString(name)
			bw.WriteString(": ")
			bw.WriteString(v)
			bw.WriteString("\r\n")
		}
	}
	bw.WriteString("\r\n")
	if err = bw.Flush(); err == nil { // bufio keeps the first write error for Flush
		if _, err = c.br.Peek(1); err == nil {
			answered = true
			err = parseResponseHead(c.br, &c.head)
		}
	}
	if err != nil {
		c.nc.Close()
	}
	return answered, err
}

type headerField struct{ name, value string }

// respHead is what the forwarder needs to know of a response head, plus
// the header fields it relays verbatim.
type respHead struct {
	status  int
	length  int64  // Content-Length, -1 when absent
	chunked bool   // Transfer-Encoding: chunked
	close   bool   // the backend closes the connection after this response
	session string // the EBIDSESSION value a Set-Cookie assigns, "" when none
	fields  []headerField
}

// parseResponseHead reads a status line and header fields up to the
// blank line. Connection and Transfer-Encoding describe this hop and are
// consumed; every other field is kept for the client, in order. A name
// or value equal to the one at the same position in the head h held
// before — the previous response on this connection, which mostly differs
// in nothing but the body — reuses that string.
func parseResponseHead(br *bufio.Reader, h *respHead) error {
	prev := h.fields
	*h = respHead{length: -1, fields: prev[:0]}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 13 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return errMalformedHead
	}
	h.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil || h.status < 200 || (line[12] != ' ' && line[12] != '\r' && line[12] != '\n') {
		return errMalformedHead
	}
	h.close = line[7] == '0'
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || len(h.fields) == maxHeaderFields {
			return errMalformedHead
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		var f, was headerField
		if i := len(h.fields); i < len(prev) {
			was = prev[i] // h.fields is about to overwrite it
		}
		if f.name = was.name; f.name != string(name) {
			f.name = textproto.CanonicalMIMEHeaderKey(string(name))
		}
		switch f.name {
		case "Connection":
			h.close = h.close || bytes.EqualFold(value, []byte("close"))
			continue
		case "Transfer-Encoding":
			if !bytes.EqualFold(value, []byte("chunked")) {
				return errMalformedHead
			}
			h.chunked = true
			continue
		case "Content-Length":
			if h.length, err = strconv.ParseInt(string(value), 10, 64); err != nil || h.length < 0 {
				return errMalformedHead
			}
		case "Set-Cookie":
			if v, ok := bytes.CutPrefix(value, []byte(httpfront.SessionCookie+"=")); ok {
				v, _, _ = bytes.Cut(v, []byte(";"))
				h.session = string(v)
			}
		}
		if f.value = was.value; f.value != string(value) {
			f.value = string(value)
		}
		h.fields = append(h.fields, f)
	}
}

// relay writes the parsed head and then the body to the client, the body
// straight out of the connection's read buffer. It reports whether the
// connection is in a known state and the backend keeps it open.
func (c *backendConn) relay(w http.ResponseWriter, method string) (reusable bool) {
	h := &c.head
	hdr := w.Header()
	vals := make([]string, len(h.fields)) // one backing array for all the single-value slices
	for i, f := range h.fields {
		if prev, repeated := hdr[f.name]; repeated {
			hdr[f.name] = append(prev, f.value)
			continue
		}
		vals[i] = f.value
		hdr[f.name] = vals[i : i+1 : i+1]
	}
	w.WriteHeader(h.status)
	switch {
	case method == http.MethodHead || h.status == http.StatusNoContent || h.status == http.StatusNotModified:
	case h.chunked:
		if _, err := io.Copy(w, httputil.NewChunkedReader(c.br)); err != nil {
			return false
		}
		for { // the trailer section, up to its blank line
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return false
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				break
			}
		}
	case h.length >= 0:
		for left := h.length; left > 0; {
			chunk, err := c.br.Peek(int(min(left, int64(c.br.Size()))))
			if _, werr := w.Write(chunk); werr != nil || err != nil {
				return false
			}
			_, _ = c.br.Discard(len(chunk)) // just peeked
			left -= int64(len(chunk))
		}
	default: // delimited by the backend closing the connection
		_, _ = io.Copy(w, c.br) // either side failing ends the response the same way
		return false
	}
	return !h.close
}
