package db

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

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
	// The offset may exclude the final record's trailing newline; that
	// is still a clean append point for the next incarnation.
	if off < int64(sink.Len()-1) {
		t.Fatalf("intact file: offset = %d, want >= %d", off, sink.Len()-1)
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
// Row contract's Go types: an Int column must come back as int64 (not
// encoding/json's float64) — the live code asserts on it — and a Float
// column must stay float64 even when its value is integral.
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
		},
	}
	if err := d.CreateTable(schema); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tx := mustBegin(t, d)
	k, err := tx.Insert("typed", Row{"count": int64(7), "price": float64(3), "label": "x"})
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
	if v, ok := row["count"].(int64); !ok || v != 7 {
		t.Fatalf("count recovered as %T(%v), want int64(7)", row["count"], row["count"])
	}
	if v, ok := row["price"].(float64); !ok || v != 3 {
		t.Fatalf("price recovered as %T(%v), want float64(3)", row["price"], row["price"])
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
	if off > int64(len(torn)) || off < int64(intact-1) {
		t.Fatalf("truncation offset %d outside [%d, %d]", off, intact-1, len(torn))
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
// the file would double them on the next recovery — and releases the
// history it loaded.
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
	reloaded, _, err := LoadWAL(bytes.NewReader(next.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Len(); got != loaded.Len()-before {
		t.Fatalf("sink after AttachSink holds %d records, want only the %d new ones",
			got, loaded.Len()-before)
	}
	if bytes.Contains(next.Bytes(), []byte(`"schema"`)) {
		t.Fatal("old create-table record re-mirrored into the new sink")
	}
}

// TestLoadWALStopsAtMalformedRecord checks that a record Recover cannot
// replay ends the valid prefix like a torn tail does: LoadWAL keeps the
// records before it, reports the offset just past them, and Recover does
// not panic.
func TestLoadWALStopsAtMalformedRecord(t *testing.T) {
	var sink bytes.Buffer
	d := New(NewWALWithSink(&sink))
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	good := sink.Bytes()
	for _, bad := range []string{
		`{"kind":0,"table":"x"}`,                                    // table creation without a schema
		`{"kind":1,"key":1,"row":{"name":"a"}}`,                     // insert without a table
		`{"kind":3,"key":1}`,                                        // delete without a table
		`{"kind":1,"table":"users","key":1}`,                        // insert without a row
		`{"kind":2,"table":"users","key":1,"row":null}`,             // update without a row
		`{"kind":1,"table":"users","key":1,"row":{"region":[1]}}`,   // non-scalar value
		`{"kind":1,"table":"users","key":1,"row":{"rating":1e999}}`, // number no Go type holds
		`{"kind":7}`, // unknown kind
		`{"kind":1,"table":"users","key":"oops","row":{}}`, // type error
	} {
		file := append(append([]byte(nil), good...), bad+"\n"+`{"kind":4,"tx":1}`+"\n"...)
		loaded, off, err := LoadWAL(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: LoadWAL: %v", bad, err)
		}
		if loaded.Len() != 1 || off != int64(len(good)-1) {
			t.Fatalf("%s: loaded %d records to offset %d, want 1 to %d", bad, loaded.Len(), off, len(good)-1)
		}
		if err := New(loaded).Recover(); err != nil {
			t.Fatalf("%s: Recover: %v", bad, err)
		}
	}
}

// TestLoadWALSchemalessFirstRecord is the one-line log that used to make
// Recover dereference a nil schema: a table creation without one.
func TestLoadWALSchemalessFirstRecord(t *testing.T) {
	loaded, off, err := LoadWAL(strings.NewReader(`{"kind":0,"table":"x"}` + "\n"))
	if err != nil || loaded.Len() != 0 || off != 0 {
		t.Fatalf("LoadWAL = %d records, offset %d, %v; want 0, 0, nil", loaded.Len(), off, err)
	}
	d := New(loaded)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if tables := d.Tables(); len(tables) != 0 {
		t.Fatalf("recovered tables %v from a log with no valid record", tables)
	}
}

// TestNonFiniteFloatNeverCommits checks that a Float column refuses NaN
// and ±Inf. The WAL's JSON encoding cannot carry them, so such a row
// would commit live while its insert record never reached the sink, and
// a restart would lose an acknowledged write. Each transaction writes one
// good row and tries one bad one; the replayed sink must equal the live
// table.
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
	rows := func(d *DB) map[int64]Row {
		out := map[int64]Row{}
		tx := mustBegin(t, d)
		defer tx.Abort()
		if err := tx.Scan("bids", func(k int64, r Row) bool { out[k] = r; return true }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if live, replayed := rows(d), rows(d2); len(live) != 3 || !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replayed sink %v differs from live table %v", replayed, live)
	}
}

// FuzzLoadWAL feeds arbitrary bytes to the startup path of a restarted
// process. Neither LoadWAL nor the Recover after it may panic, the
// offset must lie inside the input, and reloading only the prefix up to
// the offset must load the same records.
func FuzzLoadWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		w, off, err := LoadWAL(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("LoadWAL on an in-memory reader: %v", err)
		}
		if off < 0 || off > int64(len(file)) {
			t.Fatalf("offset %d outside [0, %d]", off, len(file))
		}
		again, off2, err := LoadWAL(bytes.NewReader(file[:off]))
		if err != nil || again.Len() != w.Len() || off2 != off {
			t.Fatalf("prefix [:%d] reloads %d records to offset %d (%v), want %d to %d",
				off, again.Len(), off2, err, w.Len(), off)
		}
		_ = New(w).Recover() // an unknown table is an error, never a panic
	})
}
