//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package db

import (
	"io"
	"testing"
)

// TestCommitAllocs is the allocation ceiling of one write transaction
// against a WAL sink: Begin, one row Update, Commit, Recycle. It measured
// 10 once the log's frames were appended into the flusher's reused
// buffer (19 with encoding/json); the ceiling leaves 2 of headroom, so a
// new allocation on the commit path fails here before it shows up in a
// benchmark.
func TestCommitAllocs(t *testing.T) {
	const ceiling = 12
	d := New(NewWALWithSink(io.Discard))
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, d)
	key, err := tx.Insert("users", Row{"name": "alice", "rating": int64(5), "region": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	row := Row{"name": "alice", "rating": int64(6), "region": int64(1)}
	commit := func() {
		tx := mustBegin(t, d)
		if err := tx.Update("users", key, row); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx.Recycle()
	}
	if n := testing.AllocsPerRun(200, commit); n > ceiling {
		t.Errorf("commit allocates %v times, want <= %d", n, ceiling)
	}
}

// TestLookupAllocs is the allocation ceiling of an index query in a
// transaction with no writes of its own: Lookup hands out the index's
// live key list, so it allocates nothing however many rows match.
func TestLookupAllocs(t *testing.T) {
	d := newUserDB(t)
	tx := mustBegin(t, d)
	for i := 0; i < 400; i++ {
		if _, err := tx.Insert("users", Row{"name": "u", "rating": int64(0), "region": int64(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ro := mustBegin(t, d)
	defer ro.Abort()
	var region any = int64(7)
	lookup := func() {
		keys, err := ro.Lookup("users", "region", region)
		if err != nil || len(keys) != 400 {
			t.Fatalf("Lookup = %d keys, %v; want 400", len(keys), err)
		}
	}
	if n := testing.AllocsPerRun(200, lookup); n != 0 {
		t.Errorf("Lookup allocates %v times, want 0", n)
	}
}
