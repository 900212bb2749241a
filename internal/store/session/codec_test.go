package session

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"
)

// goldenSessions pin the blob layout byte for byte (the hex was computed
// independently of marshalSession). The seed corpus of FuzzSessionCodec
// under testdata/fuzz holds the same blobs.
var goldenSessions = []struct {
	name string
	s    *Session
	hex  string
}{
	{
		name: "bid",
		s: &Session{ID: "s1", UserID: 42, Created: 90 * time.Second,
			Data: map[string]string{"step": "2", "cart": "open"}, Items: []int64{7, 9}},
		hex: "027331548090d8c69e05020463617274046f70656e04737465700132020e12",
	},
	{
		// The shape FastS's Corrupt "invalid" leaves behind.
		name: "negative-user",
		s:    &Session{ID: "neg", UserID: -1},
		hex:  "036e656701000000",
	},
	{
		name: "empty",
		s:    &Session{ID: "e", Data: map[string]string{}, Items: []int64{}},
		hex:  "016500000000",
	},
	{
		name: "non-ascii",
		s: &Session{ID: "sess-ü", UserID: 7, Created: -5,
			Data: map[string]string{"nick": "Zoë 日本"}, Items: []int64{-3, 1 << 40}},
		hex: "07736573732dc3bc0e0901046e69636b0b5a6fc3ab20e697a5e69cac0205808080808040",
	},
	{
		name: "64-byte-id",
		s: &Session{ID: "sess-" + strings.Repeat("0123456789abcdef", 3) + "0123456789a",
			UserID: 250, Created: time.Hour, Data: map[string]string{"nickname": "user250"}, Items: []int64{3300}},
		hex: "40736573732d3031323334353637383961626364656630313233343536373839616263646566303132333435363738396162636465663031323334353637383961f4038080c58bc6d10101086e69636b6e616d65077573657232353001c833",
	},
}

// sameSession compares sessions the way the codec promises to preserve
// them: a nil and an empty Data or Items are the same session.
func sameSession(a, b *Session) bool {
	if a.ID != b.ID || a.UserID != b.UserID || a.Created != b.Created ||
		len(a.Data) != len(b.Data) || len(a.Items) != len(b.Items) {
		return false
	}
	for k, v := range a.Data {
		if w, ok := b.Data[k]; !ok || w != v {
			return false
		}
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

func TestSessionCodecGolden(t *testing.T) {
	for _, g := range goldenSessions {
		blob := marshalSession(g.s)
		if got := hex.EncodeToString(blob); got != g.hex {
			t.Errorf("%s: blob\n got %s\nwant %s", g.name, got, g.hex)
		}
		if len(blob) != cap(blob) {
			t.Errorf("%s: blob len %d cap %d, want exactly sized", g.name, len(blob), cap(blob))
		}
		s, err := unmarshalSession(blob)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", g.name, err)
		}
		if !sameSession(s, g.s) {
			t.Fatalf("%s: round trip %+v, want %+v", g.name, s, g.s)
		}
		if s.Data == nil {
			t.Fatalf("%s: decoded Data is nil, want a writable map", g.name)
		}
	}
	// A nil Data or Items marshals exactly like an empty one.
	if a, b := marshalSession(&Session{ID: "e"}), marshalSession(goldenSessions[2].s); !bytes.Equal(a, b) {
		t.Fatalf("nil fields marshal to %x, empty ones to %x", a, b)
	}
}

func TestSessionCodecRejectsMalformed(t *testing.T) {
	for _, g := range goldenSessions {
		blob := marshalSession(g.s)
		for n := 0; n < len(blob); n++ {
			if s, err := unmarshalSession(blob[:n]); !errors.Is(err, errMalformed) {
				t.Fatalf("%s truncated to %d bytes: %+v, %v; want errMalformed", g.name, n, s, err)
			}
		}
		if _, err := unmarshalSession(append(blob, 0)); !errors.Is(err, errMalformed) {
			t.Fatalf("%s with a trailing byte: err %v, want errMalformed", g.name, err)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // max uint64
	for name, blob := range map[string][]byte{
		"id longer than blob":    {0x64, 's', '1'},
		"id length overflows":    huge,
		"pair count too large":   append([]byte{0x01, 'x', 0x00, 0x00}, huge...),
		"item count too large":   append([]byte{0x01, 'x', 0x00, 0x00, 0x00}, huge...),
		"value longer than rest": {0x01, 'x', 0x00, 0x00, 0x01, 0x01, 'k', 0x05, 'v', 0x00},
		"unterminated varint":    {0x01, 'x', 0x80},
	} {
		if s, err := unmarshalSession(blob); !errors.Is(err, errMalformed) {
			t.Errorf("%s: %+v, %v; want errMalformed", name, s, err)
		}
	}
}

// TestReadReturnsWritableData: gob decoded an empty Data as nil, which made
// opMakeBid's sess.Data["intent"] = ... a latent nil-map panic.
func TestReadReturnsWritableData(t *testing.T) {
	for _, st := range []Store{mustCluster(t, 1, 1, 1, nil, 0), mustCluster(t, 4, 3, 2, nil, 0)} {
		for _, data := range []map[string]string{nil, {}} {
			if err := st.Write(&Session{ID: "w", UserID: 1, Data: data}); err != nil {
				t.Fatal(err)
			}
			got, err := st.Read("w")
			if err != nil {
				t.Fatal(err)
			}
			if got.Data == nil {
				t.Fatalf("%s: Read returned a nil Data for a session written with %#v", st.Name(), data)
			}
			got.Data["intent"] = "bid"
		}
	}
}

// TestSessionPathAllocs is the allocation ceiling of the SSM session path
// for a prebuilt session. A read is the blob-to-string conversion, the
// Session, its Data map (two: the map and its slots) and Items slice; a
// write is the blob. gob spent about 200 per read and 30 per write.
func TestSessionPathAllocs(t *testing.T) {
	sess := goldenSessions[0].s
	c := mustCluster(t, 4, 3, 2, nil, 0)
	if err := c.Write(sess); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"SSMCluster.Read", 5, func() error { _, err := c.Read("s1"); return err }},
		{"SSMCluster.Write", 1, func() error { return c.Write(sess) }},
	} {
		var opErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
		if allocs > tc.max {
			t.Errorf("%s allocates %.1f times per call, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// FuzzSessionCodec: whatever bytes sit in a blob, decoding never panics,
// and anything that decodes survives a re-encode unchanged.
// Its seeds are the golden blobs, checked in under testdata/fuzz.
func FuzzSessionCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := unmarshalSession(blob)
		if err != nil {
			return
		}
		if s.Data == nil {
			t.Fatal("decoded Data is nil")
		}
		again := marshalSession(s)
		s2, err := unmarshalSession(again)
		if err != nil {
			t.Fatalf("re-encoded blob %x does not decode: %v", again, err)
		}
		if !sameSession(s, s2) {
			t.Fatalf("re-encode changed the session: %+v -> %+v", s, s2)
		}
		if third := marshalSession(s2); !bytes.Equal(third, again) {
			t.Fatalf("equal sessions marshal differently: %x vs %x", third, again)
		}
	})
}
