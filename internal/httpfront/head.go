package httpfront

import (
	"bufio"
	"bytes"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
)

// simpleRequest is the request a connection reuses for the heads its fast
// path reads. Each head it takes refills the same http.Request, url.URL
// and Header map, and cuts the header's one-element value slices from
// vals, so a request allocates only the string that holds its head.
type simpleRequest struct {
	req  http.Request
	url  url.URL
	hdr  http.Header
	vals []string
}

var headEnd = []byte("\r\n\r\n")

// read takes the next request head from br when the head is whole in br's
// buffer and is of the form eBid's clients send: a GET or HEAD of an
// origin-form target over HTTP/1.1 or HTTP/1.0, with CRLF header lines and
// no body. It then fills the reused request with what http.ReadRequest
// would give for the same bytes, consumes the head and returns the
// request. Any other head — one with a body, a percent-encoded path, an
// obs-fold line, a bare LF, a head not yet wholly buffered — returns nil
// and leaves br untouched, for http.ReadRequest to read or refuse.
func (s *simpleRequest) read(br *bufio.Reader) *http.Request {
	buf, _ := br.Peek(br.Buffered())
	if !bytes.HasPrefix(buf, []byte("GET ")) && !bytes.HasPrefix(buf, []byte("HEAD ")) {
		return nil
	}
	end := bytes.Index(buf, headEnd)
	if end < 0 {
		return nil
	}
	end += len(headEnd)
	if !s.parse(string(buf[:end])) {
		return nil
	}
	_, _ = br.Discard(end) // buffered, so it cannot fail
	return &s.req
}

// parse fills s from head, which ends in its blank line, and reports
// whether the head is one the fast path takes. Keys, values and the target
// are substrings of head.
func (s *simpleRequest) parse(head string) bool {
	line, rest, _ := strings.Cut(head, "\r\n")
	method := http.MethodGet
	if strings.HasPrefix(line, "HEAD ") {
		method = http.MethodHead
	}
	target, proto, _ := strings.Cut(line[len(method)+1:], " ")
	minor := 1
	switch proto {
	case "HTTP/1.1":
	case "HTTP/1.0":
		minor = 0
	default:
		return false
	}
	path, query, hasQuery := strings.Cut(target, "?")
	if path == "" || path[0] != '/' || !allBytes(path, pathByte) || !allBytes(query, queryByte) {
		return false
	}

	hdr := s.hdr
	clear(hdr)
	vals := s.vals[:0]
	host, hasHost := "", false
	for {
		line, rest, _ = strings.Cut(rest, "\r\n")
		if line == "" {
			break
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok || !validFieldName(key) || !allBytes(value, valueByte) {
			return false
		}
		key = textproto.CanonicalMIMEHeaderKey(key) // a canonical key comes back as it is
		value = textproto.TrimString(value)
		switch key {
		case "Content-Length", "Transfer-Encoding", "Trailer", "Pragma":
			return false
		case "Host":
			if hasHost {
				return false
			}
			host, hasHost = value, true
			continue
		}
		if vv, ok := hdr[key]; ok {
			hdr[key] = append(vv, value)
			continue
		}
		vals = append(vals, value)
		n := len(vals)
		hdr[key] = vals[n-1 : n : n]
	}
	s.vals = vals

	conn := hdr["Connection"]
	closeAfter := containsToken(conn, "close")
	if minor == 0 {
		closeAfter = closeAfter || !containsToken(conn, "keep-alive")
	}
	s.url = url.URL{Path: path, RawQuery: query, ForceQuery: hasQuery && query == ""}
	s.req = http.Request{
		Method:     method,
		URL:        &s.url,
		Proto:      proto,
		ProtoMajor: 1,
		ProtoMinor: minor,
		Header:     hdr,
		Body:       http.NoBody,
		Host:       host,
		Close:      closeAfter,
		RequestURI: target,
	}
	return true
}

// Byte classes of a request head.
const (
	// tokenByte: a header field name byte (an RFC 9110 tchar).
	tokenByte = 1 << iota
	// valueByte: a header field value byte, as textproto accepts it:
	// visible ASCII, space, tab and obs-text.
	valueByte
	// pathByte: a path byte that url's path escaping leaves alone, so
	// that the path needs neither decoding nor a RawPath.
	pathByte
	// queryByte: printable ASCII.
	queryByte
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		alnum := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		if alnum || c < 0x7f && strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0 {
			t[c] |= tokenByte
		}
		if c == '\t' || ' ' <= c && c != 0x7f {
			t[c] |= valueByte
		}
		if alnum || c < 0x7f && strings.IndexByte("-_.~$&+,/:;=@", byte(c)) >= 0 {
			t[c] |= pathByte
		}
		if ' ' < c && c < 0x7f {
			t[c] |= queryByte
		}
	}
	return t
}()

// allBytes reports whether every byte of s is of class class.
func allBytes(s string, class uint8) bool {
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]]&class == 0 {
			return false
		}
	}
	return true
}

// containsToken reports whether one of the comma-separated elements of
// vals is token, compared ASCII case-insensitively, as net/http decides
// whether a Connection header says "close" or "keep-alive".
func containsToken(vals []string, token string) bool {
	for _, v := range vals {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if asciiEqualFold(strings.Trim(elem, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// asciiEqualFold reports whether s equals the lower-case ASCII token,
// ignoring ASCII case only.
func asciiEqualFold(s, token string) bool {
	if len(s) != len(token) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != token[i] {
			return false
		}
	}
	return true
}
