package httpfront

import (
	"bufio"
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// headCases are request heads at each edge of the fast path, with whether
// it takes them. Every one the fast path declines is left to
// http.ReadRequest, which reads or refuses it.
var headCases = []struct {
	name, head string
	fast       bool
}{
	{"browse", "GET /ebid/ViewItem?item=7 HTTP/1.1\r\nHost: bench\r\nCookie: EBIDSESSION=http-0123456789abcdef0123456789abcdef\r\n\r\n", true},
	{"traced", "GET /ebid/SearchItemsByCategory?category=3 HTTP/1.1\r\nHost: bench\r\nX-Bench-Req: 42\r\n\r\n", true},
	{"bid", "GET /ebid/CommitBid?amount=12.5 HTTP/1.1\r\nHost: bench\r\nCookie: EBIDSESSION=abc\r\n\r\n", true},
	{"head", "HEAD /ebid/Home HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"no-headers", "GET / HTTP/1.0\r\n\r\n", true},
	{"http10-keep-alive", "GET /ka HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true},
	{"close-token", "GET / HTTP/1.1\r\nHost: x\r\nConnection: foo, CLOSE\r\n\r\n", true},
	{"lower-case-keys", "GET / HTTP/1.1\r\nhost: x\r\ncookie: a=b\r\nuser-AGENT: t\r\n\r\n", true},
	{"repeated-key", "GET / HTTP/1.1\r\nHost: x\r\nCookie: a=1\r\nCookie: b=2\r\n\r\n", true},
	{"value-whitespace", "GET / HTTP/1.1\r\nHost:x\r\nX-A: \t v  w \t\r\nX-B:\r\n\r\n", true},
	{"obs-text", "GET / HTTP/1.1\r\nHost: x\r\nX-A: caf\xc3\xa9\r\n\r\n", true},
	{"query-marks", "GET /a?b=c?d#e HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"query-semicolon-plus", "GET /ebid/ViewItem?item=3;x=1&user=1+2 HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"force-query", "GET /a? HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"path-marks", "GET //a/./b/../c;d=e,f:g@h$i&j+k~l HTTP/1.1\r\nHost: x\r\n\r\n", true},
	{"no-host", "GET / HTTP/1.1\r\n\r\n", true},                          // the loop answers 400
	{"expect", "GET / HTTP/1.1\r\nHost: x\r\nExpect: tea\r\n\r\n", true}, // the loop answers 417

	{"duplicate-host", "GET / HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n", false},
	{"content-length", "GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n", false},
	{"transfer-encoding", "GET / HTTP/1.1\r\nHost: x\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n", false},
	{"trailer", "GET / HTTP/1.1\r\nHost: x\r\nTrailer: X\r\n\r\n", false},
	{"pragma", "GET / HTTP/1.1\r\nHost: x\r\nPragma: no-cache\r\n\r\n", false},
	{"percent-path", "GET /ebid/View%49tem?item=3 HTTP/1.1\r\nHost: x\r\n\r\n", false},
	{"escaped-path", "GET /a!b HTTP/1.1\r\nHost: x\r\n\r\n", false},
	{"control-in-query", "GET /a?b=\x7f HTTP/1.1\r\nHost: x\r\n\r\n", false},
	{"absolute-form", "GET http://x/a HTTP/1.1\r\nHost: x\r\n\r\n", false},
	{"asterisk", "GET * HTTP/1.1\r\nHost: x\r\n\r\n", false},
	{"post", "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\na", false},
	{"lower-method", "get / HTTP/1.1\r\nHost: x\r\n\r\n", false},
	{"http2", "GET / HTTP/2.0\r\nHost: x\r\n\r\n", false},
	{"bare-lf", "GET / HTTP/1.1\nHost: x\n\n", false},
	{"bare-lf-header", "GET / HTTP/1.1\r\nHost: x\nX-A: b\r\n\r\n", false},
	{"obs-fold", "GET / HTTP/1.1\r\nHost: x\r\nX-A: b\r\n c\r\n\r\n", false},
	{"space-before-colon", "GET / HTTP/1.1\r\nHost : x\r\n\r\n", false},
	{"no-colon", "GET / HTTP/1.1\r\nHost: x\r\nNo Colon Here\r\n\r\n", false},
	{"empty-key", "GET / HTTP/1.1\r\nHost: x\r\n: v\r\n\r\n", false},
	{"control-in-value", "GET / HTTP/1.1\r\nHost: x\r\nX-A: a\x01b\r\n\r\n", false},
	{"cut-head", "GET / HTTP/1.1\r\nHost: x\r\n", false},
	{"over-buffer", "GET / HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("p", readBufferSize) + "\r\n\r\n", false},
}

// readHead runs the fast path on in as a connection's buffer holds it and
// returns the request it took (nil when it declined) and the bytes it
// consumed. A declined head must be left wholly unread.
func readHead(t *testing.T, in []byte) (*http.Request, int) {
	t.Helper()
	s := simpleRequest{hdr: http.Header{}}
	br := bufio.NewReaderSize(bytes.NewReader(in), readBufferSize)
	_, _ = br.Peek(1)
	before := br.Buffered()
	req := s.read(br)
	used := before - br.Buffered()
	if req == nil && used != 0 {
		t.Fatalf("the fast path declined %q but consumed %d bytes", in, used)
	}
	return req, used
}

func TestReadHeadTakesOnlyWhatItUnderstands(t *testing.T) {
	for _, tc := range headCases {
		if req, _ := readHead(t, []byte(tc.head)); (req != nil) != tc.fast {
			t.Errorf("%s: the fast path took it: %v, want %v", tc.name, req != nil, tc.fast)
		}
	}
}

// FuzzReadHead is the differential check of the fast path against
// http.ReadRequest. Whenever the fast path takes an input, ReadRequest must
// read the same bytes as one request with no body and give the same
// method, target, protocol, URL, header, Host and Close. The seeds are the
// heads of headCases, and pipelined pairs of them.
func FuzzReadHead(f *testing.F) {
	for _, tc := range headCases {
		f.Add([]byte(tc.head))
	}
	f.Add([]byte(headCases[0].head + headCases[1].head))
	f.Add([]byte(headCases[2].head + "POST /a HTTP/1.1\r\nHost: x\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, used := readHead(t, in)
		if got == nil {
			return
		}
		rd := bytes.NewReader(in)
		br := bufio.NewReaderSize(rd, readBufferSize)
		want, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("the fast path took %q; http.ReadRequest refuses it: %v", in, err)
		}
		if wantUsed := len(in) - rd.Len() - br.Buffered(); used != wantUsed {
			t.Fatalf("%q: the fast path read %d bytes, http.ReadRequest %d", in, used, wantUsed)
		}
		if want.Body != http.NoBody || want.ContentLength != 0 || want.TransferEncoding != nil || want.Trailer != nil {
			t.Fatalf("%q: http.ReadRequest reads a body: %T, length %d, %q, trailer %v",
				in, want.Body, want.ContentLength, want.TransferEncoding, want.Trailer)
		}
		type view struct {
			Method, RequestURI, Proto string
			ProtoMajor, ProtoMinor    int
			Header                    http.Header
			Host                      string
			Close                     bool
			ContentLength             int64
			Body                      any
			TransferEncoding          []string
			Trailer                   http.Header
		}
		of := func(r *http.Request) view {
			return view{r.Method, r.RequestURI, r.Proto, r.ProtoMajor, r.ProtoMinor, r.Header, r.Host,
				r.Close, r.ContentLength, r.Body, r.TransferEncoding, r.Trailer}
		}
		if g, w := of(got), of(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%q:\nfast path        %+v\nhttp.ReadRequest %+v", in, g, w)
		}
		if !reflect.DeepEqual(*got.URL, *want.URL) {
			t.Fatalf("%q: URL %#v, http.ReadRequest %#v", in, *got.URL, *want.URL)
		}
	})
}
