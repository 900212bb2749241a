package db

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func userSchema() Schema {
	return Schema{
		Name: "users",
		Columns: []Column{
			{Name: "name", Type: Str},
			{Name: "rating", Type: Int, Checked: 1, MinInt: -100, MaxInt: 100},
			{Name: "region", Type: Int},
			{Name: "email", Type: Str, Nullable: true},
		},
		Indexes: []string{"region"},
	}
}

func mustBegin(t *testing.T, d *DB) *Tx {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return tx
}

// newUserDB builds a database with the users table whose WAL keeps its
// history in memory, so tests can Crash, Recover and RepairTable it.
func newUserDB(t *testing.T) *DB {
	t.Helper()
	d := New(NewWAL())
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return d
}

func TestInsertGetCommit(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	key, err := tx.Insert("users", Row{"name": "alice", "rating": int64(5), "region": int64(1)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := tx.Get("users", key)
	if err != nil {
		t.Fatalf("Get inside tx: %v", err)
	}
	if got["name"] != "alice" {
		t.Fatalf("name = %v, want alice", got["name"])
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	got, err = tx2.Get("users", key)
	if err != nil {
		t.Fatalf("Get after commit: %v", err)
	}
	if got["rating"] != int64(5) {
		t.Fatalf("rating = %v, want 5", got["rating"])
	}
}

func TestAbortRollsBack(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	key, err := tx.Insert("users", Row{"name": "bob", "rating": int64(1), "region": int64(2)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	if _, err := tx2.Get("users", key); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Get after abort: err = %v, want ErrNoRow", err)
	}
}

func TestUpdateVisibility(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	key, _ := tx.Insert("users", Row{"name": "carol", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := mustBegin(t, d)
	if err := tx2.Update("users", key, Row{"name": "carol", "rating": int64(9), "region": int64(1)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// Own write visible.
	r, _ := tx2.Get("users", key)
	if r["rating"] != int64(9) {
		t.Fatalf("own write invisible: rating = %v", r["rating"])
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := mustBegin(t, d)
	defer tx3.Abort()
	r, _ = tx3.Get("users", key)
	if r["rating"] != int64(9) {
		t.Fatalf("committed write invisible: rating = %v", r["rating"])
	}
}

func TestLockConflictFailsFast(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	key, _ := tx.Insert("users", Row{"name": "dan", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	a := mustBegin(t, d)
	b := mustBegin(t, d)
	if err := a.Update("users", key, Row{"name": "dan", "rating": int64(1), "region": int64(1)}); err != nil {
		t.Fatalf("first update: %v", err)
	}
	err := b.Update("users", key, Row{"name": "dan", "rating": int64(2), "region": int64(1)})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second update err = %v, want ErrConflict", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// After a commits, b can retry.
	if err := b.Update("users", key, Row{"name": "dan", "rating": int64(2), "region": int64(1)}); err != nil {
		t.Fatalf("retry update: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	_, _, conflicts := d.Stats()
	if conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", conflicts)
	}
}

func TestSchemaValidation(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	defer tx.Abort()
	cases := []Row{
		{"name": nil, "rating": int64(0), "region": int64(1)},                  // null non-nullable
		{"name": "x", "rating": int64(101), "region": int64(1)},                // out of range
		{"name": "x", "rating": "not-an-int", "region": int64(1)},              // wrong type
		{"name": 42, "rating": int64(0), "region": int64(1)},                   // wrong type for str
		{"rating": int64(0), "region": int64(1)},                               // missing non-nullable
		{"name": "x", "rating": int64(0), "region": int64(1), "age": int64(3)}, // outside the schema
		{"name": strings.Repeat("x", maxRowText/2), "rating": int64(0), "region": int64(1),
			"email": strings.Repeat("y", maxRowText/2+1)}, // past the log frame's text cap
	}
	for i, r := range cases {
		if _, err := tx.Insert("users", r); !errors.Is(err, ErrBadValue) {
			t.Fatalf("case %d: err = %v, want ErrBadValue", i, err)
		}
	}
	huge := Schema{Name: "huge", Columns: []Column{{Name: strings.Repeat("c", maxSchemaBytes), Type: Int}}}
	if err := d.CreateTable(huge); !errors.Is(err, ErrBadValue) {
		t.Fatalf("CreateTable of a schema past the log frame's cap: %v, want ErrBadValue", err)
	}
	// Nullable column may be omitted.
	if _, err := tx.Insert("users", Row{"name": "ok", "rating": int64(0), "region": int64(1)}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
}

func TestIndexLookup(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "a", "rating": int64(0), "region": int64(7)})
	k2, _ := tx.Insert("users", Row{"name": "b", "rating": int64(0), "region": int64(7)})
	_, _ = tx.Insert("users", Row{"name": "c", "rating": int64(0), "region": int64(8)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	keys, err := tx2.Lookup("users", "region", int64(7))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(keys) != 2 || keys[0] != k1 || keys[1] != k2 {
		t.Fatalf("Lookup = %v, want [%d %d]", keys, k1, k2)
	}
	if _, err := tx2.Lookup("users", "name", "a"); err == nil {
		t.Fatal("Lookup on unindexed column should error")
	}
}

func TestLookupSeesOwnWrites(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k, _ := tx.Insert("users", Row{"name": "a", "rating": int64(0), "region": int64(3)})
	keys, err := tx.Lookup("users", "region", int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != k {
		t.Fatalf("uncommitted insert invisible to own Lookup: %v", keys)
	}
	if err := tx.Delete("users", k); err != nil {
		t.Fatal(err)
	}
	keys, _ = tx.Lookup("users", "region", int64(3))
	if len(keys) != 0 {
		t.Fatalf("deleted row still visible: %v", keys)
	}
	tx.Abort()
}

// TestLookupSeesOwnUpdateAway: a row this transaction moved to another
// value leaves the old value's list and joins the new one's, before the
// commit as after it.
func TestLookupSeesOwnUpdateAway(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k, _ := tx.Insert("users", Row{"name": "a", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	if err := tx2.Update("users", k, Row{"name": "a", "rating": int64(0), "region": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if keys, _ := tx2.Lookup("users", "region", int64(1)); len(keys) != 0 {
		t.Fatalf("own update away still listed under the old region: %v", keys)
	}
	if keys, _ := tx2.Lookup("users", "region", int64(2)); len(keys) != 1 || keys[0] != k {
		t.Fatalf("own update missing under the new region: %v", keys)
	}
}

func TestIndexMaintainedAcrossUpdate(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k, _ := tx.Insert("users", Row{"name": "a", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, d)
	if err := tx2.Update("users", k, Row{"name": "a", "rating": int64(0), "region": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := mustBegin(t, d)
	defer tx3.Abort()
	if keys, _ := tx3.Lookup("users", "region", int64(1)); len(keys) != 0 {
		t.Fatalf("stale index entry for old region: %v", keys)
	}
	if keys, _ := tx3.Lookup("users", "region", int64(2)); len(keys) != 1 {
		t.Fatalf("missing index entry for new region: %v", keys)
	}
}

func TestScan(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	for i := 0; i < 5; i++ {
		_, _ = tx.Insert("users", Row{"name": "u", "rating": int64(i), "region": int64(1)})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	var seen []int64
	err := tx2.Scan("users", func(k int64, r Row) bool {
		seen = append(seen, k)
		return len(seen) < 3 // early stop
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("scan keys = %v, want [1 2 3]", seen)
	}

	// A large table whose keys arrive in descending order still scans
	// ascending, its own uncommitted rows merged in.
	const n = 5000
	big := New(nil)
	if err := big.CreateTable(Schema{Name: "big", Columns: []Column{{Name: "v", Type: Int}}}); err != nil {
		t.Fatal(err)
	}
	tx3 := mustBegin(t, big)
	for k := int64(n); k > 1; k-- {
		if err := tx3.InsertWithKey("big", k, Row{"v": k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx4 := mustBegin(t, big)
	defer tx4.Abort()
	if err := tx4.InsertWithKey("big", 1, Row{"v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	want := int64(1)
	err = tx4.Scan("big", func(k int64, r Row) bool {
		if k != want || r["v"] != k {
			t.Fatalf("scan row %d (v=%v), want %d", k, r["v"], want)
		}
		want++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != n+1 {
		t.Fatalf("scan stopped after %d rows, want %d", want-1, n)
	}
}

func TestCrashRecovery(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "durable", "rating": int64(1), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Uncommitted transaction at crash time must vanish.
	tx2 := mustBegin(t, d)
	k2, _ := tx2.Insert("users", Row{"name": "volatile", "rating": int64(2), "region": int64(1)})

	d.Crash()
	if !d.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if _, err := d.Begin(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Begin on crashed db: err = %v, want ErrCrashed", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit of tx open across crash: err = %v, want ErrTxDone", err)
	}
	if err := d.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx3 := mustBegin(t, d)
	defer tx3.Abort()
	if _, err := tx3.Get("users", k1); err != nil {
		t.Fatalf("committed row lost in crash: %v", err)
	}
	if _, err := tx3.Get("users", k2); !errors.Is(err, ErrNoRow) {
		t.Fatalf("uncommitted row survived crash: err = %v", err)
	}
}

func TestRecoverPreservesKeyAllocator(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "a", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, d)
	k2, err := tx2.Insert("users", Row{"name": "b", "rating": int64(0), "region": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if k2 <= k1 {
		t.Fatalf("key reuse after recovery: k1=%d k2=%d", k1, k2)
	}
	tx2.Abort()
}

func TestCorruptionDetectAndRepair(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k, _ := tx.Insert("users", Row{"name": "victim", "rating": int64(10), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Null corruption: detectable.
	if _, err := d.CorruptRow("users", k, "name", nil); err != nil {
		t.Fatalf("CorruptRow: %v", err)
	}
	bad, err := d.CheckTable("users")
	if err != nil || len(bad) != 1 || bad[0] != k {
		t.Fatalf("CheckTable = %v, %v; want [%d]", bad, err, k)
	}
	n, err := d.RepairTable("users")
	if err != nil || n != 1 {
		t.Fatalf("RepairTable = %d, %v", n, err)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	r, err := tx2.Get("users", k)
	if err != nil || r["name"] != "victim" {
		t.Fatalf("post-repair row = %v, %v", r, err)
	}
	if bad, _ := d.CheckTable("users"); len(bad) != 0 {
		t.Fatalf("corruption remains after repair: %v", bad)
	}
}

func TestInvalidCorruptionDetected(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	k, _ := tx.Insert("users", Row{"name": "x", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// rating 5000 type-checks but violates the Checked range: "invalid".
	if _, err := d.CorruptRow("users", k, "rating", int64(5000)); err != nil {
		t.Fatal(err)
	}
	bad, _ := d.CheckTable("users")
	if len(bad) != 1 {
		t.Fatalf("invalid corruption not detected: %v", bad)
	}
}

func TestWrongValueCorruptionUndetectable(t *testing.T) {
	// "Wrong" corruption is schema-valid; CheckTable must NOT flag it —
	// this is why the paper requires manual repair for it.
	d := newUserDB(t)
	tx := mustBegin(t, d)
	a, _ := tx.Insert("users", Row{"name": "a", "rating": int64(1), "region": int64(1)})
	b, _ := tx.Insert("users", Row{"name": "b", "rating": int64(2), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.SwapRows("users", a, b); err != nil {
		t.Fatal(err)
	}
	bad, _ := d.CheckTable("users")
	if len(bad) != 0 {
		t.Fatalf("wrong-value corruption unexpectedly detected: %v", bad)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	r, _ := tx2.Get("users", a)
	if r["name"] != "b" {
		t.Fatalf("swap did not take effect: %v", r)
	}
}

func TestAbortAll(t *testing.T) {
	d := newUserDB(t)
	t1 := mustBegin(t, d)
	t2 := mustBegin(t, d)
	t3 := mustBegin(t, d)
	keep := t2.ID()
	n := d.AbortAll(func(id uint64) bool { return id == keep })
	if n != 2 {
		t.Fatalf("AbortAll aborted %d, want 2", n)
	}
	if !t1.Done() || t2.Done() || !t3.Done() {
		t.Fatalf("done states = %v %v %v, want true false true", t1.Done(), t2.Done(), t3.Done())
	}
	t2.Abort()
}

func TestInsertWithKeyDuplicate(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	r := Row{"name": "x", "rating": int64(0), "region": int64(1)}
	if err := tx.InsertWithKey("users", 42, r); err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertWithKey("users", 42, r); !errors.Is(err, ErrDupKey) {
		t.Fatalf("dup insert err = %v, want ErrDupKey", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, d)
	defer tx2.Abort()
	if err := tx2.InsertWithKey("users", 42, r); !errors.Is(err, ErrDupKey) {
		t.Fatalf("dup insert of committed key err = %v, want ErrDupKey", err)
	}
	// Auto keys must not collide with explicit keys.
	k, err := tx2.Insert("users", r)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 42 {
		t.Fatalf("auto key %d collides with explicit key space", k)
	}
}

func TestWALSinkMirrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWALWithSink(&buf)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, d)
	_, _ = tx.Insert("users", Row{"name": "m", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := sinkRecords(t, buf.Bytes())
	if len(recs) != 3 || recs[0].Table != "users" { // create + insert + commit mark
		t.Fatalf("WAL sink holds %+v, want the table's creation, the insert and its mark", recs)
	}
}

// TestNoHistoryMeansNoReplay checks that a database whose log keeps no
// history — no WAL at all, or one with a sink — answers Recover and
// RepairTable with ErrNoHistory and keeps its tables, instead of
// rebuilding them empty.
func TestNoHistoryMeansNoReplay(t *testing.T) {
	for name, wal := range map[string]*WAL{"no WAL": nil, "sink": NewWALWithSink(io.Discard)} {
		d := New(wal)
		if err := d.CreateTable(userSchema()); err != nil {
			t.Fatal(err)
		}
		tx := mustBegin(t, d)
		if _, err := tx.Insert("users", Row{"name": "kept", "rating": int64(0), "region": int64(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.RepairTable("users"); !errors.Is(err, ErrNoHistory) {
			t.Fatalf("%s: RepairTable err = %v, want ErrNoHistory", name, err)
		}
		if err := d.Recover(); !errors.Is(err, ErrNoHistory) {
			t.Fatalf("%s: Recover err = %v, want ErrNoHistory", name, err)
		}
		if n, err := d.RowCount("users"); err != nil || n != 1 {
			t.Fatalf("%s: RowCount = %d, %v after a refused replay, want 1", name, n, err)
		}
	}
}

func TestTruncatedWALDropsUncommitted(t *testing.T) {
	w := NewWAL()
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, d)
	_, _ = tx.Insert("users", Row{"name": "a", "rating": int64(0), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, d)
	_, _ = tx2.Insert("users", Row{"name": "b", "rating": int64(0), "region": int64(1)})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Damage the log: drop the second commit's mark.
	w.TruncateTail(1)
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	n, _ := d.RowCount("users")
	if n != 1 {
		t.Fatalf("rows after recovery from truncated WAL = %d, want 1", n)
	}
}

func TestConcurrentDisjointCommits(t *testing.T) {
	d := newUserDB(t)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := d.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := tx.Insert("users", Row{"name": "w", "rating": int64(w), "region": int64(w)}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, _ := d.RowCount("users")
	if n != workers*perWorker {
		t.Fatalf("rows = %d, want %d", n, workers*perWorker)
	}
}

// Property: a random interleaving of commit/abort transactions leaves the
// database equal to applying only the committed ones, and crash+recover
// reproduces exactly the same state (atomicity + durability).
func TestPropertyAtomicityAndDurability(t *testing.T) {
	type step struct {
		Rating int8
		Commit bool
	}
	f := func(steps []step) bool {
		d := newUserDB(t)
		want := map[int64]int64{}
		for _, s := range steps {
			tx, err := d.Begin()
			if err != nil {
				return false
			}
			k, err := tx.Insert("users", Row{"name": "p", "rating": int64(s.Rating % 100), "region": int64(1)})
			if err != nil {
				return false
			}
			if s.Commit {
				if err := tx.Commit(); err != nil {
					return false
				}
				want[k] = int64(s.Rating % 100)
			} else {
				if err := tx.Abort(); err != nil {
					return false
				}
			}
		}
		check := func() bool {
			tx, err := d.Begin()
			if err != nil {
				return false
			}
			defer tx.Abort()
			got := map[int64]int64{}
			_ = tx.Scan("users", func(k int64, r Row) bool {
				got[k] = r["rating"].(int64)
				return true
			})
			if len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
			return true
		}
		if !check() {
			return false
		}
		d.Crash()
		if err := d.Recover(); err != nil {
			return false
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestErrNoTable(t *testing.T) {
	d := New(nil)
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if _, err := tx.Get("ghost", 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v, want ErrNoTable", err)
	}
	if _, err := d.CheckTable("ghost"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("CheckTable err = %v, want ErrNoTable", err)
	}
	if err := d.CreateTable(Schema{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(Schema{Name: "t"}); !errors.Is(err, ErrDupTable) {
		t.Fatalf("dup CreateTable err = %v, want ErrDupTable", err)
	}
}

func TestTxDoneGuards(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("users", Row{"name": "x", "rating": int64(0), "region": int64(1)}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Insert after commit err = %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit err = %v, want ErrTxDone", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("abort after commit err = %v, want ErrTxDone", err)
	}
}

// TestWritesCopyTheCallersRow: Insert, InsertWithKey and Update each keep
// a copy of the row they are given, so a caller that goes on writing to
// its row — before Commit or after it — changes nothing the database
// holds: not what Get returns, not what Recover replays from the log.
func TestWritesCopyTheCallersRow(t *testing.T) {
	for _, kind := range []string{"Insert", "InsertWithKey", "Update"} {
		t.Run(kind, func(t *testing.T) {
			d := newUserDB(t)
			key := int64(7)
			if kind == "Update" {
				tx := mustBegin(t, d)
				if err := tx.InsertWithKey("users", key, Row{"name": "old", "rating": int64(0), "region": int64(9)}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			r := Row{"name": "alice", "rating": int64(5), "region": int64(1)}
			tx := mustBegin(t, d)
			var err error
			switch kind {
			case "Insert":
				key, err = tx.Insert("users", r)
			case "InsertWithKey":
				err = tx.InsertWithKey("users", key, r)
			case "Update":
				err = tx.Update("users", key, r)
			}
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			check := func(when string, tx *Tx) {
				t.Helper()
				got, err := tx.Get("users", key)
				if err != nil {
					t.Fatalf("%s: Get: %v", when, err)
				}
				if got["name"] != "alice" || got["rating"] != int64(5) {
					t.Fatalf("%s: Get = %v, want the row as it was at %s", when, got, kind)
				}
			}
			r["name"], r["rating"] = "mallory", int64(-5)
			check("before Commit", tx)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			r["name"], r["rating"] = "eve", int64(-9)
			check("after Commit", mustBegin(t, d))
			d.Crash()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			check("after Recover", mustBegin(t, d))
		})
	}
}
