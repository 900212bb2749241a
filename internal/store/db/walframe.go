package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// A log file that a WAL with a sink writes starts with walMagic, and
// each record follows as one frame:
//
//	length   uvarint: the payload's byte count, at most maxPayload
//	crc      4 bytes, little-endian: the CRC-32C of the payload, seeded
//	         with the previous frame's crc (the first with the magic's)
//	payload  kind   1 byte (recKind)
//	         tx     uvarint
//	         table  uvarint length, bytes
//	         key    varint
//	         then, by kind:
//	           create          the schema: uvarint column count, then per
//	                           column its name, type (uvarint), nullable
//	                           (1 byte), checked, min and max (varints);
//	                           uvarint index count, then each index's name
//	           insert, update  the row: uvarint column count, then per
//	                           column, in name order, its name, a tag byte
//	                           and the value the tag calls for
//	           delete, commit  nothing
//
// Every name is a uvarint length and its bytes. The value tags are
// tagNull, tagInt (a varint follows), tagFloat (8 bytes, little-endian
// IEEE 754 bits), tagStr (a length and bytes), tagFalse and tagTrue.
//
// Seeding each crc with its predecessor chains the frames, so a
// flipped bit, a splice or a reordering ends the valid prefix at the
// first frame it touches instead of replaying as data. A crash can only
// tear the last frame, which the same check finds. The chain vouches for
// a process kill, not for power loss: nothing is fsynced.
const walMagic = "EBIDWAL1"

// ErrNotWAL is returned by LoadWAL for a non-empty file that does not
// start with walMagic: an old JSON-line log, say, or not a log at all.
// It is refused whole, never truncated.
var ErrNotWAL = errors.New("db: not a framed WAL file")

const (
	// maxPayload caps a frame's payload. A length past it is damage.
	// validate and CreateTable keep every frame the store writes far
	// below it (maxRowText, maxSchemaBytes).
	maxPayload = 16 << 20
	// maxRowText caps the bytes of a row's string values.
	maxRowText = 1 << 20
	// maxSchemaBytes caps a table creation's payload, and so the table
	// and column names that every row frame repeats.
	maxSchemaBytes = 1 << 20
	// frameHeadMax is the longest length + crc head.
	frameHeadMax = binary.MaxVarintLen64 + 4
)

// Row value tags.
const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagStr
	tagFalse
	tagTrue
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// magicCRC seeds the first frame's crc.
	magicCRC = crc32.Checksum([]byte(walMagic), castagnoli)
)

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

func nameLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendName(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// valueLen is the encoded size of a tagged row value. validate admits
// only the types below; appendValue writes anything else as null.
func valueLen(v any) int {
	switch v := v.(type) {
	case int64:
		return 1 + varintLen(v)
	case float64:
		return 9
	case string:
		return 1 + nameLen(v)
	}
	return 1
}

func appendValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case int64:
		return binary.AppendVarint(append(b, tagInt), v)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(v))
	case string:
		return appendName(append(b, tagStr), v)
	case bool:
		if v {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	}
	return append(b, tagNull)
}

// schemaLen is the encoded size of a create frame's schema body.
func schemaLen(s *Schema) int {
	n := uvarintLen(uint64(len(s.Columns))) + uvarintLen(uint64(len(s.Indexes)))
	for _, c := range s.Columns {
		n += nameLen(c.Name) + uvarintLen(uint64(c.Type)) + 1 +
			varintLen(c.Checked) + varintLen(c.MinInt) + varintLen(c.MaxInt)
	}
	for _, ix := range s.Indexes {
		n += nameLen(ix)
	}
	return n
}

func appendSchema(b []byte, s *Schema) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		b = appendName(b, c.Name)
		b = binary.AppendUvarint(b, uint64(c.Type))
		nullable := byte(0)
		if c.Nullable {
			nullable = 1
		}
		b = append(b, nullable)
		b = binary.AppendVarint(b, c.Checked)
		b = binary.AppendVarint(b, c.MinInt)
		b = binary.AppendVarint(b, c.MaxInt)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		b = appendName(b, ix)
	}
	return b
}

// payloadLen is the encoded size of rec's payload. names holds the
// row's column names in order.
func payloadLen(rec *walRecord, names []string) int {
	n := 1 + uvarintLen(rec.TxID) + nameLen(rec.Table) + varintLen(rec.Key)
	switch rec.Kind {
	case recCreateTable:
		n += schemaLen(rec.Schema)
	case recInsert, recUpdate:
		n += uvarintLen(uint64(len(names)))
		for _, k := range names {
			n += nameLen(k) + valueLen(rec.Row[k])
		}
	}
	return n
}

// appendFrame appends rec's frame to b in one exactly sized growth, and
// returns the grown buffer and the frame's crc, which seeds the next.
// names is scratch space for the row's sorted column names, returned for
// reuse: with b and names grown, encoding allocates nothing.
func appendFrame(b []byte, prev uint32, rec *walRecord, names []string) ([]byte, uint32, []string) {
	names = names[:0]
	for k := range rec.Row {
		names = append(names, k)
	}
	slices.Sort(names)
	size := payloadLen(rec, names)
	b = slices.Grow(b, uvarintLen(uint64(size))+4+size)
	b = binary.AppendUvarint(b, uint64(size))
	crcAt := len(b)
	b = append(b, 0, 0, 0, 0)
	start := len(b)
	b = append(b, byte(rec.Kind))
	b = binary.AppendUvarint(b, rec.TxID)
	b = appendName(b, rec.Table)
	b = binary.AppendVarint(b, rec.Key)
	switch rec.Kind {
	case recCreateTable:
		b = appendSchema(b, rec.Schema)
	case recInsert, recUpdate:
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, k := range names {
			b = appendValue(appendName(b, k), rec.Row[k])
		}
	}
	crc := crc32.Update(prev, castagnoli, b[start:])
	binary.LittleEndian.PutUint32(b[crcAt:], crc)
	return b, crc, names
}

// frameDecoder walks one payload. Every read checks the bytes that
// remain: malformed input sets bad, never panics, and no count can make
// the decoder allocate for more elements than the payload could hold.
type frameDecoder struct {
	b   []byte
	off int
	bad bool
}

func (d *frameDecoder) byte() byte {
	if d.bad || d.off >= len(d.b) {
		d.bad = true
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *frameDecoder) uvarint() uint64 {
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

func (d *frameDecoder) varint() int64 {
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

// count reads a uvarint element count and rejects one that the
// remaining bytes cannot hold at minElem bytes per element.
func (d *frameDecoder) count(minElem int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/minElem) {
		d.bad = true
		return 0
	}
	return int(n)
}

// name returns the next length-prefixed byte string, a view into the
// payload.
func (d *frameDecoder) name() []byte {
	n := d.count(1)
	if d.bad {
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *frameDecoder) value() any {
	switch d.byte() {
	case tagNull:
		return nil
	case tagInt:
		return d.varint()
	case tagFloat:
		if len(d.b)-d.off < 8 {
			d.bad = true
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
		return v
	case tagStr:
		return string(d.name())
	case tagFalse:
		return false
	case tagTrue:
		return true
	}
	d.bad = true
	return nil
}

func (d *frameDecoder) schema(table string) *Schema {
	s := &Schema{Name: table}
	// A column is at least a one-byte name length, type, nullable and
	// three one-byte varints.
	if n := d.count(6); n > 0 {
		s.Columns = make([]Column, n)
		for i := range s.Columns {
			c := &s.Columns[i]
			c.Name = string(d.name())
			c.Type = ColType(d.uvarint())
			nullable := d.byte()
			c.Nullable = nullable == 1
			c.Checked, c.MinInt, c.MaxInt = d.varint(), d.varint(), d.varint()
			if nullable > 1 {
				d.bad = true
			}
		}
	}
	if n := d.count(1); n > 0 {
		s.Indexes = make([]string, n)
		for i := range s.Indexes {
			s.Indexes[i] = string(d.name())
		}
	}
	return s
}

// decodeRecord decodes one payload into a record Recover can replay: a
// known kind, and for a mutation a table that schemas (the creations
// decoded so far) holds, and for an insert or update a row whose column
// names are in strictly ascending order. ok is false for anything else.
// The table and column names of a mutation are the schema's own strings,
// so rows share them instead of each holding copies.
func decodeRecord(p []byte, schemas map[string]*Schema) (rec walRecord, ok bool) {
	d := frameDecoder{b: p}
	rec.Kind = recKind(d.byte())
	rec.TxID = d.uvarint()
	table := d.name()
	rec.Key = d.varint()
	if d.bad {
		return rec, false
	}
	var s *Schema
	switch rec.Kind {
	case recCreateTable:
		rec.Table = string(table)
		rec.Schema = d.schema(rec.Table)
	case recInsert, recUpdate, recDelete:
		if s = schemas[string(table)]; s == nil {
			return rec, false
		}
		rec.Table = s.Name
	case recCommitMark:
	default:
		return rec, false
	}
	if rec.Kind == recInsert || rec.Kind == recUpdate {
		// A column is at least a one-byte name length and a tag.
		n := d.count(2)
		rec.Row = make(Row, n)
		var last []byte
		for i := 0; i < n && !d.bad; i++ {
			name := d.name()
			if i > 0 && string(name) <= string(last) {
				d.bad = true
				break
			}
			last = name
			rec.Row[columnName(s, name)] = d.value()
		}
	}
	return rec, !d.bad && d.off == len(p)
}

// columnName returns s's own string for the column called name, or a
// copy of name when s has no such column.
func columnName(s *Schema, name []byte) string {
	for i := range s.Columns {
		if s.Columns[i].Name == string(name) {
			return s.Columns[i].Name
		}
	}
	return string(name)
}

// readPayload returns the next n bytes of br: a view into br's buffer
// when they fit in it, else a copy in *big. Either way memory grows only
// with the bytes that arrive, so a damaged length costs nothing. The
// error is br's, io.EOF included, when fewer than n bytes remain.
func readPayload(br *bufio.Reader, n int, big *[]byte) ([]byte, error) {
	if n <= br.Size() {
		p, err := br.Peek(n)
		if err != nil {
			return nil, err
		}
		_, _ = br.Discard(n)
		return p, nil
	}
	buf := (*big)[:0]
	for len(buf) < n {
		chunk, err := br.Peek(min(n-len(buf), br.Size()))
		buf = append(buf, chunk...)
		_, _ = br.Discard(len(chunk))
		if err != nil {
			*big = buf
			return nil, err
		}
	}
	*big = buf
	return buf, nil
}

// readHead reads the magic. ok is true when it is there whole; false
// with a nil error for an empty file or a proper prefix of the magic (a
// crash tore the first write).
func readHead(br *bufio.Reader) (ok bool, err error) {
	var head [len(walMagic)]byte
	n, err := io.ReadFull(br, head[:])
	switch {
	case err == nil && string(head[:]) == walMagic:
		return true, nil
	case err == nil || err == io.ErrUnexpectedEOF:
		if err != nil && string(head[:n]) == walMagic[:n] {
			return false, nil
		}
		return false, ErrNotWAL
	case err == io.EOF:
		return false, nil
	}
	return false, err
}
