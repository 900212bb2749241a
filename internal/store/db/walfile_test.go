package db

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"
)

// frameEnds returns the end offset of each frame of a log file, in order.
// It trusts the lengths: call it on files the WAL wrote.
func frameEnds(t *testing.T, file []byte) []int {
	t.Helper()
	if !bytes.HasPrefix(file, []byte(walMagic)) {
		t.Fatalf("log does not start with the magic: %q", file[:min(len(file), 16)])
	}
	var ends []int
	for off := len(walMagic); off < len(file); {
		size, n := binary.Uvarint(file[off:])
		if n <= 0 {
			t.Fatalf("bad frame length at %d", off)
		}
		off += n + 4 + int(size)
		ends = append(ends, off)
	}
	return ends
}

// sinkRecords decodes every frame a WAL wrote to its sink, and fails the
// test if any of it does not load.
func sinkRecords(t *testing.T, sink []byte) []walRecord {
	t.Helper()
	w, off, err := LoadWAL(bytes.NewReader(sink))
	if err != nil || off != int64(len(sink)) {
		t.Fatalf("sink loads to offset %d of %d: %v", off, len(sink), err)
	}
	return w.records
}

// appendRawFrame frames payload as the WAL would, chained to prev.
func appendRawFrame(b []byte, prev uint32, payload []byte) ([]byte, uint32) {
	crc := crc32.Update(prev, castagnoli, payload)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc)
	return append(b, payload...), crc
}

// TestLoadWALRoundTrip mirrors commits to a buffer, reloads them with
// LoadWAL as a restarted process would, and checks the recovered
// database sees exactly the committed state.
func TestLoadWALRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "durable", "rating": int64(1), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loaded, off, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("LoadWAL: %v", err)
	}
	if off != int64(sink.Len()) {
		t.Fatalf("intact file: offset = %d, want %d", off, sink.Len())
	}
	if loaded.Len() != w.Len() {
		t.Fatalf("loaded %d records, want %d", loaded.Len(), w.Len())
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx2 := mustBegin(t, d2)
	defer tx2.Abort()
	if _, err := tx2.Get("users", k1); err != nil {
		t.Fatalf("committed row missing after file reload: %v", err)
	}
}

// TestLoadWALRestoresRowTypes checks the file round trip preserves the
// Row contract's Go types, each tagged in the frame: an Int column comes
// back as int64 — the live code asserts on it — a Float column stays
// float64 even when its value is integral, and a nullable column left
// out stays out.
func TestLoadWALRestoresRowTypes(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	schema := Schema{
		Name: "typed",
		Columns: []Column{
			{Name: "count", Type: Int},
			{Name: "price", Type: Float},
			{Name: "label", Type: Str},
			{Name: "ok", Type: Bool},
			{Name: "note", Type: Str, Nullable: true},
		},
	}
	if err := d.CreateTable(schema); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	want := Row{"count": int64(-7), "price": float64(3), "label": "x", "ok": true, "note": nil}
	tx := mustBegin(t, d)
	k, err := tx.Insert("typed", want)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("LoadWAL: %v", err)
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx2 := mustBegin(t, d2)
	defer tx2.Abort()
	row, err := tx2.Get("typed", k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, want) {
		t.Fatalf("row recovered as %#v, want %#v", row, want)
	}
	if got := d2.tables["typed"].schema; !reflect.DeepEqual(got, schema) {
		t.Fatalf("schema recovered as %+v, want %+v", got, schema)
	}
}

// TestLoadWALTornTail torn-writes the last record (a crash mid-flush)
// and checks the loader stops at the last intact record and reports the
// truncation offset, so the next incarnation can append cleanly.
func TestLoadWALTornTail(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "safe", "rating": int64(1), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	intact := sink.Len()
	tx2 := mustBegin(t, d)
	if _, err := tx2.Insert("users", Row{"name": "torn", "rating": int64(2), "region": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the second transaction's records.
	torn := sink.Bytes()[:intact+(sink.Len()-intact)/2]

	loaded, off, err := LoadWAL(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("LoadWAL on torn file: %v", err)
	}
	if off > int64(len(torn)) || off < int64(intact) {
		t.Fatalf("truncation offset %d outside [%d, %d]", off, intact, len(torn))
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx3 := mustBegin(t, d2)
	defer tx3.Abort()
	if _, err := tx3.Get("users", k1); err != nil {
		t.Fatalf("first (fully flushed) commit lost: %v", err)
	}
	// The torn transaction never reached its commit mark in the kept
	// prefix — it must not be replayed.
	rows := 0
	err = tx3.Scan("users", func(key int64, row Row) bool {
		rows++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("replayed %d rows, want 1 (torn tx must vanish)", rows)
	}
}

// TestAttachSinkAppendsOnly checks a reloaded WAL with a freshly
// attached sink writes only new records — replaying the old ones into
// the file would double them on the next recovery — continues the crc
// chain of the file it was loaded from, and releases the history it
// loaded.
func TestAttachSinkAppendsOnly(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	loaded, _, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	before := loaded.Len()
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	var next bytes.Buffer
	loaded.AttachSink(&next)
	if n := len(loaded.records); n != 0 {
		t.Fatalf("AttachSink kept %d loaded records in memory", n)
	}
	tx := mustBegin(t, d2)
	if _, err := tx.Insert("users", Row{"name": "new", "rating": int64(1), "region": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() <= before {
		t.Fatal("new commit did not append to the reloaded log")
	}
	if bytes.Contains(next.Bytes(), []byte(walMagic)) || bytes.Contains(next.Bytes(), []byte("email")) {
		t.Fatal("the magic or the old create-table record re-mirrored into the new sink")
	}
	file := append(append([]byte(nil), sink.Bytes()...), next.Bytes()...)
	if got := len(sinkRecords(t, file)); got != loaded.Len() {
		t.Fatalf("the continued file holds %d records, want %d", got, loaded.Len())
	}
}

// TestLoadWALStopsAtMalformedRecord checks that a record Recover cannot
// replay ends the valid prefix like a torn tail does, even with a crc
// that checks: LoadWAL keeps the records before it, reports the offset
// just past them, and Recover does not panic.
func TestLoadWALStopsAtMalformedRecord(t *testing.T) {
	var sink bytes.Buffer
	d := New(NewWALWithSink(&sink))
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	good := sink.Bytes()
	prefix, _, err := LoadWAL(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"schemaless create":     {byte(recCreateTable), 0, 1, 'x', 0},
		"insert, unknown table": {byte(recInsert), 1, 1, 'x', 2, 0},
		"delete, unknown table": {byte(recDelete), 1, 1, 'x', 2},
		"insert without a row":  {byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2},
		"unknown value tag":     {byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2, 1, 4, 'n', 'a', 'm', 'e', 9},
		"columns out of order": {byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2, 2,
			4, 'n', 'a', 'm', 'e', tagNull, 1, 'a', tagNull},
		"repeated column": {byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2, 2,
			1, 'a', tagNull, 1, 'a', tagNull},
		"trailing bytes":    {byte(recDelete), 1, 5, 'u', 's', 'e', 'r', 's', 2, 0},
		"cut-short float":   {byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2, 1, 1, 'a', tagFloat, 0, 0},
		"unknown kind":      {7, 1, 0, 0},
		"nullable byte 2":   {byte(recCreateTable), 0, 1, 'x', 0, 1, 1, 'c', 0, 2, 0, 0, 0, 0},
		"string past end":   {byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2, 1, 1, 'a', tagStr, 9, 'z'},
		"key varint cut":    {byte(recDelete), 1, 5, 'u', 's', 'e', 'r', 's', 0x80},
		"no payload at all": {},
	} {
		file, crc := appendRawFrame(append([]byte(nil), good...), prefix.crc, bad)
		file, _ = appendRawFrame(file, crc, []byte{byte(recCommitMark), 1, 0, 0})
		loaded, off, err := LoadWAL(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: LoadWAL: %v", name, err)
		}
		if loaded.Len() != 1 || off != int64(len(good)) {
			t.Fatalf("%s: loaded %d records to offset %d, want 1 to %d", name, loaded.Len(), off, len(good))
		}
		if err := New(loaded).Recover(); err != nil {
			t.Fatalf("%s: Recover: %v", name, err)
		}
	}
}

// TestLoadWALSchemalessFirstRecord is the one-record log that used to
// make Recover dereference a nil schema: a table creation without one.
func TestLoadWALSchemalessFirstRecord(t *testing.T) {
	file, _ := appendRawFrame([]byte(walMagic), magicCRC, []byte{byte(recCreateTable), 0, 1, 'x', 0})
	loaded, off, err := LoadWAL(bytes.NewReader(file))
	if err != nil || loaded.Len() != 0 || off != int64(len(walMagic)) {
		t.Fatalf("LoadWAL = %d records, offset %d, %v; want 0, %d, nil", loaded.Len(), off, err, len(walMagic))
	}
	d := New(loaded)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if tables := d.Tables(); len(tables) != 0 {
		t.Fatalf("recovered tables %v from a log with no valid record", tables)
	}
}

// TestLoadWALStopsAtBrokenChain damages a log three ways that keep every
// frame well formed — a flipped bit inside a string value, two frames
// swapped, a frame spliced in from another log — and checks each ends
// the prefix at the first frame it touches.
func TestLoadWALStopsAtBrokenChain(t *testing.T) {
	log := func(names ...string) []byte {
		var sink bytes.Buffer
		d := New(NewWALWithSink(&sink))
		if err := d.CreateTable(userSchema()); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			tx := mustBegin(t, d)
			if _, err := tx.Insert("users", Row{"name": name, "rating": int64(1), "region": int64(1)}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return sink.Bytes()
	}
	file := log("alice", "bob")
	ends := frameEnds(t, file) // create, insert, mark, insert, mark
	other := log("carol", "dave")
	otherEnds := frameEnds(t, other)

	flipped := bytes.Clone(file)
	at := bytes.Index(flipped, []byte("bob"))
	flipped[at] ^= 0x02 // "bob" → "`ob": still a well-formed string
	swapped := slices.Concat(file[:ends[2]], file[ends[3]:ends[4]], file[ends[2]:ends[3]])
	spliced := slices.Concat(file[:ends[2]], other[otherEnds[2]:])
	for name, c := range map[string]struct {
		file []byte
		keep int // frames
	}{
		"flipped bit": {flipped, 3},
		"swapped":     {swapped, 3},
		"spliced":     {spliced, 3},
	} {
		loaded, off, err := LoadWAL(bytes.NewReader(c.file))
		if err != nil || loaded.Len() != c.keep || off != int64(ends[c.keep-1]) {
			t.Errorf("%s: loaded %d records to offset %d (%v), want %d to %d",
				name, loaded.Len(), off, err, c.keep, ends[c.keep-1])
		}
	}
}

// TestLoadWALHead covers the file's first bytes: an old JSON-line log or
// any other non-empty file without the magic is refused with ErrNotWAL; an
// empty file and a proper prefix of the magic (a torn first write) load
// nothing, at offset 0, and the first flush after AttachSink writes the
// magic; a file that holds only the magic loads nothing at offset 8 and
// is continued without a second one.
func TestLoadWALHead(t *testing.T) {
	for _, file := range []string{`{"kind":0,"table":"x"}` + "\n", "X", "EBIDWAL2", "\x00"} {
		if _, off, err := LoadWAL(bytes.NewReader([]byte(file))); !errors.Is(err, ErrNotWAL) || off != 0 {
			t.Errorf("LoadWAL(%q) = offset %d, %v; want 0, ErrNotWAL", file, off, err)
		}
	}
	for _, c := range []struct {
		file string
		off  int64
	}{{"", 0}, {"EBI", 0}, {walMagic[:7], 0}, {walMagic, 8}} {
		loaded, off, err := LoadWAL(bytes.NewReader([]byte(c.file)))
		if err != nil || off != c.off || loaded.Len() != 0 {
			t.Fatalf("LoadWAL(%q) = %d records to offset %d, %v; want 0 to %d", c.file, loaded.Len(), off, err, c.off)
		}
		d := New(loaded)
		if err := d.Recover(); err != nil {
			t.Fatal(err)
		}
		sink := bytes.NewBufferString(c.file[:off])
		loaded.AttachSink(sink)
		if err := d.CreateTable(userSchema()); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(sink.Bytes(), []byte(walMagic)); n != 1 {
			t.Fatalf("after %q the log holds the magic %d times, want 1", c.file, n)
		}
		if recs := sinkRecords(t, sink.Bytes()); len(recs) != 1 {
			t.Fatalf("after %q the log holds %d records, want 1", c.file, len(recs))
		}
	}
}

// TestWALCrashAtEveryOffset is the crash-at-every-offset check. It builds
// a log of several group-commit batches — table creations, then
// transactions that insert, update and delete — and, at every byte
// offset, separately truncates the file there and flips one bit there.
// After LoadWAL + Recover the database must equal its live state after
// some committed prefix: for a cut, the commits whose frames end by the
// offset; for a flip, a prefix that ends before the damaged frame, which
// is never replayed.
func TestWALCrashAtEveryOffset(t *testing.T) {
	var sink bytes.Buffer
	d := New(NewWALWithSink(&sink))
	// states[i] is the live state once frame completes[i] (a creation or
	// a commit mark) is on the sink.
	var states []map[string]map[int64]Row
	var completes []int
	snap := func() {
		states = append(states, dumpDB(t, d))
		completes = append(completes, len(frameEnds(t, sink.Bytes()))-1)
	}
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	snap()
	if err := d.CreateTable(Schema{Name: "bids", Columns: []Column{{Name: "amount", Type: Float}, {Name: "open", Type: Bool}}}); err != nil {
		t.Fatal(err)
	}
	snap()
	commit := func(f func(tx *Tx) error) {
		t.Helper()
		tx := mustBegin(t, d)
		if err := f(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		snap()
	}
	commit(func(tx *Tx) error {
		if _, err := tx.Insert("users", Row{"name": "alice", "rating": int64(5), "region": int64(1)}); err != nil {
			return err
		}
		_, err := tx.Insert("bids", Row{"amount": 12.5, "open": true})
		return err
	})
	commit(func(tx *Tx) error {
		return tx.Update("users", 1, Row{"name": "alice", "rating": int64(-6), "region": int64(2), "email": "a@x"})
	})
	commit(func(tx *Tx) error {
		if _, err := tx.Insert("users", Row{"name": "bob", "rating": int64(0), "region": int64(1)}); err != nil {
			return err
		}
		return tx.Delete("bids", 1)
	})
	file := bytes.Clone(sink.Bytes())
	ends := frameEnds(t, file)
	// want returns the state after the first k frames.
	want := func(k int) map[string]map[int64]Row {
		state := map[string]map[int64]Row{}
		for i, c := range completes {
			if c < k {
				state = states[i]
			}
		}
		return state
	}
	framesBy := func(off int) int { // frames that end at or before off
		k := 0
		for k < len(ends) && ends[k] <= off {
			k++
		}
		return k
	}
	load := func(file []byte) (int, map[string]map[int64]Row, error) {
		w, off, err := LoadWAL(bytes.NewReader(file))
		if err != nil {
			return 0, nil, err
		}
		k := framesBy(int(off))
		if k != w.Len() || (k > 0 && int(off) != ends[k-1]) || (k == 0 && off > int64(len(walMagic))) {
			t.Fatalf("loaded %d records to offset %d; frames end at %v", w.Len(), off, ends)
		}
		d := New(w)
		if err := d.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return k, dumpDB(t, d), nil
	}
	for off := 0; off <= len(file); off++ {
		k, got, err := load(file[:off])
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if k != framesBy(off) || !reflect.DeepEqual(got, want(k)) {
			t.Fatalf("cut at %d: %d frames, state %v; want %d, %v", off, k, got, framesBy(off), want(framesBy(off)))
		}
	}
	for off := 0; off < len(file); off++ {
		flipped := bytes.Clone(file)
		flipped[off] ^= 1 << (off % 8)
		k, got, err := load(flipped)
		if off < len(walMagic) {
			if !errors.Is(err, ErrNotWAL) {
				t.Fatalf("flip at %d in the magic: %v, want ErrNotWAL", off, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		if damaged := framesBy(off); k > damaged || !reflect.DeepEqual(got, want(k)) {
			t.Fatalf("flip at %d (frame %d): %d frames, state %v; want at most %d, %v", off, damaged, k, got, damaged, want(k))
		}
	}
}

// dumpDB returns every table's rows.
func dumpDB(t *testing.T, d *DB) map[string]map[int64]Row {
	t.Helper()
	out := map[string]map[int64]Row{}
	tx := mustBegin(t, d)
	defer tx.Abort()
	for _, name := range d.Tables() {
		rows := map[int64]Row{}
		if err := tx.Scan(name, func(k int64, r Row) bool { rows[k] = r; return true }); err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

// TestWALFrameGolden pins the bytes of one CommitBid transaction as the
// eBid app writes it: the id_seq row update, the bid insert, the item
// update and the commit mark, each a frame chained to the one before.
func TestWALFrameGolden(t *testing.T) {
	recs := []walRecord{
		{Kind: recUpdate, TxID: 9, Table: "id_seq", Key: 2, Row: Row{"kind": "bid", "next": int64(101)}},
		{Kind: recInsert, TxID: 9, Table: "bids", Key: 100, Row: Row{"user": int64(5), "item": int64(7), "amount": 77.5}},
		{Kind: recUpdate, TxID: 9, Table: "items", Key: 7, Row: Row{
			"name": "item7", "seller": int64(3), "category": int64(2), "region": int64(1),
			"price": 10.0, "max_bid": 77.5, "nb_bids": int64(4), "quantity": int64(1)}},
		{Kind: recCommitMark, TxID: 9},
	}
	var b []byte
	var names []string
	crc := magicCRC
	for i := range recs {
		b, crc, names = appendFrame(b, crc, &recs[i], names)
	}
	const golden = "" +
		// id_seq: update tx 9, table, key 2, two columns
		"1d" + "ca6a8e90" + "02" + "09" + "06" + "69645f736571" + "04" +
		"02" + "046b696e64" + "03" + "03626964" + "046e657874" + "01" + "ca01" +
		// bids: insert key 100, three columns
		"28" + "60e4b7d5" + "01" + "09" + "0462696473" + "c801" +
		"03" + "06616d6f756e74" + "02" + "0000000000605340" + "046974656d" + "01" + "0e" + "0475736572" + "01" + "0a" +
		// items: update key 7, eight columns
		"68" + "f040a363" + "02" + "09" + "056974656d73" + "0e" +
		"08" + "0863617465676f7279" + "01" + "04" + "076d61785f626964" + "02" + "0000000000605340" +
		"046e616d65" + "03" + "056974656d37" + "076e625f62696473" + "01" + "08" +
		"057072696365" + "02" + "0000000000002440" + "087175616e74697479" + "01" + "02" +
		"06726567696f6e" + "01" + "02" + "0673656c6c6572" + "01" + "06" +
		// the commit mark
		"04" + "ccb44e6c" + "04" + "09" + "00" + "00"
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("CommitBid frames\n got %s\nwant %s", got, golden)
	}
}

// TestNonFiniteFloatNeverCommits checks that a Float column refuses NaN
// and ±Inf: no amount is infinite, and a NaN never equals itself, so an
// index could never find it again. Each transaction writes one good row
// and tries one bad one; the replayed sink must equal the live table.
func TestNonFiniteFloatNeverCommits(t *testing.T) {
	var sink bytes.Buffer
	d := New(NewWALWithSink(&sink))
	schema := Schema{Name: "bids", Columns: []Column{{Name: "amount", Type: Float}}}
	if err := d.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		tx := mustBegin(t, d)
		if _, err := tx.Insert("bids", Row{"amount": float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("bids", Row{"amount": bad}); !errors.Is(err, ErrBadValue) {
			t.Fatalf("Insert(amount: %v) err = %v, want ErrBadValue", bad, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	loaded, _, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	if live, replayed := dumpDB(t, d), dumpDB(t, d2); len(live["bids"]) != 3 || !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replayed sink %v differs from live table %v", replayed, live)
	}
}

// FuzzLoadWAL feeds arbitrary bytes to the startup path of a restarted
// process. Neither LoadWAL nor the Recover after it may panic; the only
// error an in-memory reader can get is ErrNotWAL, and only for a
// non-empty input that neither starts with the magic nor is a prefix of
// it; the offset lies inside the input; and reloading only the prefix up
// to the offset loads the same records.
func FuzzLoadWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		w, off, err := LoadWAL(bytes.NewReader(file))
		if err != nil {
			magic := []byte(walMagic)
			if !errors.Is(err, ErrNotWAL) || len(file) == 0 || bytes.HasPrefix(file, magic) || bytes.HasPrefix(magic, file) {
				t.Fatalf("LoadWAL on an in-memory reader: %v", err)
			}
			return
		}
		if off < 0 || off > int64(len(file)) {
			t.Fatalf("offset %d outside [0, %d]", off, len(file))
		}
		again, off2, err := LoadWAL(bytes.NewReader(file[:off]))
		if err != nil || again.Len() != w.Len() || off2 != off {
			t.Fatalf("prefix [:%d] reloads %d records to offset %d (%v), want %d to %d",
				off, again.Len(), off2, err, w.Len(), off)
		}
		if err := New(w).Recover(); err != nil {
			t.Fatalf("Recover of a loaded prefix: %v", err)
		}
	})
}

// FuzzWALFrame checks the frame codec on its own: decoding arbitrary
// bytes as a payload never panics, and any record of scalars encodes to
// a frame whose crc checks and that decodes back to the same record.
func FuzzWALFrame(f *testing.F) {
	f.Add([]byte{byte(recInsert), 1, 5, 'u', 's', 'e', 'r', 's', 2, 1, 1, 'a', tagNull}, uint64(3), "users", int64(-4), "name", "bob", int64(9), 2.5, true)
	f.Add([]byte{}, uint64(0), "", int64(0), "", "", int64(0), 0.0, false)
	f.Fuzz(func(t *testing.T, payload []byte, tx uint64, table string, key int64, col, s string, i int64, fl float64, b bool) {
		schema := &Schema{Name: "users", Columns: []Column{{Name: "a", Type: Int}}}
		_, _ = decodeRecord(payload, map[string]*Schema{"users": schema})

		row := Row{col + "s": s, col + "i": i, col + "f": fl, col + "b": b, col + "n": nil}
		schemas := map[string]*Schema{table: {Name: table}}
		for _, rec := range []walRecord{
			{Kind: recInsert, TxID: tx, Table: table, Key: key, Row: row},
			{Kind: recUpdate, TxID: tx, Table: table, Key: key, Row: Row{}},
			{Kind: recDelete, TxID: tx, Table: table, Key: key},
			{Kind: recCommitMark, TxID: tx},
			{Kind: recCreateTable, TxID: tx, Table: table, Schema: &Schema{Name: table,
				Columns: []Column{{Name: col, Type: ColType(i & 3), Nullable: b, Checked: i, MinInt: key, MaxInt: -i}},
				Indexes: []string{s}}},
		} {
			frame, crc, _ := appendFrame(nil, magicCRC, &rec, nil)
			size, n := binary.Uvarint(frame)
			if n <= 0 || int(size) != len(frame)-n-4 {
				t.Fatalf("frame length %d does not match its %d-byte payload", size, len(frame)-n-4)
			}
			p := frame[n+4:]
			if binary.LittleEndian.Uint32(frame[n:]) != crc || crc32.Update(magicCRC, castagnoli, p) != crc {
				t.Fatal("the frame's crc does not check")
			}
			got, ok := decodeRecord(p, schemas)
			if !ok || !reflect.DeepEqual(got, rec) {
				if fl != fl && rec.Kind == recInsert { // NaN != NaN: compare the rest
					continue
				}
				t.Fatalf("round trip: %+v, %v; want %+v", got, ok, rec)
			}
		}
	})
}
