package session

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"
)

// The SSM stores each session as one blob, written by marshalSession and
// checksummed (CRC32) by the store. The layout is fixed by the Session
// shape; every string is a uvarint byte length followed by the bytes, and
// every integer a varint:
//
//	ID        uvarint len, bytes
//	UserID    varint
//	Created   varint (nanoseconds)
//	Data      uvarint pair count, then per pair: key string, value string,
//	          keys in ascending order
//	Items     uvarint count, then one varint per item
//
// Sorting the keys makes the blob a function of the session, so equal
// sessions marshal to equal bytes and checksums. unmarshalSession checks
// every length and count against the bytes that remain: malformed input
// is an error, never a panic, and no count can make the decoder allocate
// for more elements than the blob could hold.

// errMalformed is the single decode error: the CRC has already vouched
// for the bytes, so a blob that does not parse is a codec bug or a forged
// entry, and no detail would help a caller.
var errMalformed = errors.New("session: unmarshal: malformed blob")

// stackKeys is how many Data keys marshalSession sorts without a heap
// allocation; sessions carry one or two.
const stackKeys = 8

// uvarintLen is the encoded size of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen is the encoded size of binary.AppendVarint(nil, x).
func varintLen(x int64) int {
	return uvarintLen(uint64(x<<1) ^ uint64(x>>63))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// marshalSession encodes s into one exactly-sized blob.
func marshalSession(s *Session) []byte {
	var keyBuf [stackKeys]string
	keys := keyBuf[:0]
	size := uvarintLen(uint64(len(s.ID))) + len(s.ID) +
		varintLen(s.UserID) + varintLen(int64(s.Created)) +
		uvarintLen(uint64(len(s.Data))) + uvarintLen(uint64(len(s.Items)))
	for k, v := range s.Data {
		keys = append(keys, k)
		size += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(v))) + len(v)
	}
	slices.Sort(keys)
	for _, it := range s.Items {
		size += varintLen(it)
	}

	b := make([]byte, 0, size)
	b = appendString(b, s.ID)
	b = binary.AppendVarint(b, s.UserID)
	b = binary.AppendVarint(b, int64(s.Created))
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(appendString(b, k), s.Data[k])
	}
	b = binary.AppendUvarint(b, uint64(len(s.Items)))
	for _, it := range s.Items {
		b = binary.AppendVarint(b, it)
	}
	return b
}

// decoder walks a blob. str is the blob converted to a string once, so
// every decoded string is a substring of it rather than its own copy.
type decoder struct {
	b   []byte
	str string
	off int
	bad bool
}

func (d *decoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) varint() int64 {
	if d.bad {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return x
}

// count reads a uvarint element count and rejects one that the remaining
// bytes cannot hold at minElem bytes per element.
func (d *decoder) count(minElem int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/minElem) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *decoder) text() string {
	n := d.count(1)
	if d.bad {
		return ""
	}
	s := d.str[d.off : d.off+n]
	d.off += n
	return s
}

// unmarshalSession decodes a marshalSession blob. Data is always non-nil,
// so callers can write to it; Items is nil when the session has none.
func unmarshalSession(b []byte) (*Session, error) {
	d := decoder{b: b, str: string(b)}
	s := &Session{ID: d.text()}
	s.UserID = d.varint()
	s.Created = time.Duration(d.varint())
	// Each pair is at least two one-byte lengths.
	n := d.count(2)
	s.Data = make(map[string]string, n)
	for i := 0; i < n && !d.bad; i++ {
		k := d.text()
		s.Data[k] = d.text()
	}
	if n := d.count(1); n > 0 {
		s.Items = make([]int64, n)
		for i := range s.Items {
			s.Items[i] = d.varint()
		}
	}
	if d.bad || d.off != len(b) {
		return nil, errMalformed
	}
	return s, nil
}
