package db_test

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/store/db"
)

// Tests for the concurrent read path: shared-lock reads and their
// interaction with commits, crashes, recovery, and repair. These are
// primarily -race exercisers; the staleness test also asserts that a read
// never returns a value older than the last commit that returned.

func kvDB(t *testing.T) *db.DB {
	t.Helper()
	d := db.New(db.NewWAL()) // the tests Crash, Recover and RepairTable it
	schema := db.Schema{
		Name:    "kv",
		Columns: []db.Column{{Name: "v", Type: db.Int}, {Name: "tag", Type: db.Str}},
		Indexes: []string{"tag"},
	}
	if err := d.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 8; k++ {
		if err := tx.InsertWithKey("kv", k, db.Row{"v": int64(0), "tag": "t"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return d
}

// tolerable reports whether err is an error a reader may legitimately see
// while the database is being crashed/recovered/aborted under it.
func tolerable(err error) bool {
	return err == nil ||
		errors.Is(err, db.ErrCrashed) ||
		errors.Is(err, db.ErrTxDone) ||
		errors.Is(err, db.ErrConflict)
}

// TestConcurrentReadsDuringCommits hammers shared-lock reads
// (Get, Lookup, Scan) against committing writers, row corruption, and
// table repair. Run under -race this proves readers never observe a row
// mid-mutation: rows are immutable and installed copy-on-write.
func TestConcurrentReadsDuringCommits(t *testing.T) {
	d := kvDB(t)
	const (
		readers = 4
		writes  = 400
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: bump counters through the transactional API.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := int64(w + 1) // disjoint keys: no conflicts between writers
			for i := 1; i <= writes; i++ {
				tx, err := d.Begin()
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				if err := tx.Update("kv", key, db.Row{"v": int64(i), "tag": "t"}); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(w)
	}

	// A corruptor + repairer: bypasses the transactional API the way the
	// Table 2 fault campaign does, exercising the copy-on-write swap and
	// table rebuild against live readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := d.CorruptRow("kv", 7, "v", nil); err != nil {
				t.Errorf("CorruptRow: %v", err)
				return
			}
			if _, err := d.CheckTable("kv"); err != nil {
				t.Errorf("CheckTable: %v", err)
				return
			}
			if _, err := d.RepairTable("kv"); err != nil {
				t.Errorf("RepairTable: %v", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := d.Begin()
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				for k := int64(1); k <= 8; k++ {
					row, err := tx.Get("kv", k)
					if err != nil {
						t.Errorf("Get(%d): %v", k, err)
						return
					}
					// Touch the value: -race flags this if a writer could
					// mutate the row in place.
					_ = row["v"]
				}
				if _, err := tx.Lookup("kv", "tag", "t"); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				if err := tx.Scan("kv", func(_ int64, r db.Row) bool { _ = r["v"]; return true }); err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if err := tx.Commit(); err != nil && !errors.Is(err, db.ErrTxDone) {
					t.Errorf("read-only Commit: %v", err)
					return
				}
			}
		}()
	}

	// The writers bound the test; stop the readers once both have
	// finished all their commits (visible in the commit counter).
	go func() {
		for {
			commits, _, _ := d.Stats()
			if commits >= uint64(2*writes) {
				close(stop)
				return
			}
		}
	}()
	wg.Wait()

	// Final state must reflect every commit.
	for w := 0; w < 2; w++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		row, err := tx.Get("kv", int64(w+1))
		if err != nil {
			t.Fatal(err)
		}
		if got := row["v"].(int64); got != writes {
			t.Fatalf("key %d: v = %d, want %d", w+1, got, writes)
		}
		_ = tx.Commit()
	}
}

// TestLookupResultsStableUnderCommits: readers walk Lookup results while
// a committer appends, inserts in the middle of and deletes from the same
// value's key list. A result is the index's live list, so under -race this
// proves no commit writes into a list a reader holds; each reader also
// checks that every result is strictly ascending and that the result it
// held last still equals the copy it saved.
func TestLookupResultsStableUnderCommits(t *testing.T) {
	d := kvDB(t) // keys 1..8 under tag "t"
	const rounds = 300
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held, saved []int64
			for !done.Load() {
				tx, err := d.Begin()
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				keys, err := tx.Lookup("kv", "tag", "t")
				if err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("read-only Commit: %v", err)
					return
				}
				tx.Recycle()
				for i := 1; i < len(keys); i++ {
					if keys[i-1] >= keys[i] {
						t.Errorf("Lookup = %v: not strictly ascending", keys)
						return
					}
				}
				if !slices.Equal(held, saved) {
					t.Errorf("a held Lookup result changed from %v to %v", saved, held)
					return
				}
				held, saved = keys, slices.Clone(keys)
			}
		}()
	}
	commit := func(write func(tx *db.Tx) error) {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := write(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	row := db.Row{"v": int64(0), "tag": "t"}
	for i := int64(0); i < rounds; i++ {
		high, low := 1000+i, 999-i // an append, then a middle insert
		commit(func(tx *db.Tx) error { return tx.InsertWithKey("kv", high, row) })
		commit(func(tx *db.Tx) error { return tx.InsertWithKey("kv", low, row) })
		if i > 0 {
			gone := high - 1 // alternately the tail and a middle key
			if i%2 == 0 {
				gone = low + 1
			}
			commit(func(tx *db.Tx) error { return tx.Delete("kv", gone) })
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestConcurrentReadsAcrossCrashRecover races readers against full
// crash/recover cycles and mass aborts. Readers must only ever see clean
// outcomes: success or ErrCrashed/ErrTxDone — never a torn row or a
// pre-crash table resurrected across a crash.
func TestConcurrentReadsAcrossCrashRecover(t *testing.T) {
	d := kvDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := d.Begin()
				if err != nil {
					if !tolerable(err) {
						t.Errorf("Begin: %v", err)
					}
					continue
				}
				if row, err := tx.Get("kv", 3); err == nil {
					_ = row["v"]
				} else if !tolerable(err) {
					t.Errorf("Get: %v", err)
				}
				if err := tx.Commit(); err != nil && !tolerable(err) {
					t.Errorf("Commit: %v", err)
				}
			}
		}()
	}

	// One writer keeps commits flowing so the WAL grows across cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			tx, err := d.Begin()
			if err != nil {
				continue
			}
			if err := tx.Update("kv", 5, db.Row{"v": i, "tag": "t"}); err != nil {
				_ = tx.Abort()
				continue
			}
			_ = tx.Commit()
		}
	}()

	for cycle := 0; cycle < 30; cycle++ {
		d.Crash()
		if !d.Crashed() {
			t.Fatal("Crashed() = false after Crash")
		}
		if err := d.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		d.AbortAll(nil)
	}
	close(stop)
	wg.Wait()

	// After the last Recover the table must be complete.
	n, err := d.RowCount("kv")
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("RowCount = %d, want 8", n)
	}
}

// TestReadsNeverServeStale is the staleness bound: a reader that starts
// after a commit returned must see that commit's value (or newer). The
// writer publishes the committed version only after Commit returns;
// readers snapshot that floor before reading and require value ≥ floor.
func TestReadsNeverServeStale(t *testing.T) {
	d := kvDB(t)
	const commits = 2000
	var floor atomic.Int64 // highest version known committed
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := int64(1); i <= commits; i++ {
			tx, err := d.Begin()
			if err != nil {
				t.Errorf("Begin: %v", err)
				return
			}
			if err := tx.Update("kv", 1, db.Row{"v": i, "tag": "t"}); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("Commit: %v", err)
				return
			}
			floor.Store(i) // published strictly after the commit returned
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				want := floor.Load()
				tx, err := d.Begin()
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				row, err := tx.Get("kv", 1)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if got := row["v"].(int64); got < want {
					t.Errorf("stale read: v = %d, but %d was committed before the read began", got, want)
					return
				}
				_ = tx.Commit()
			}
		}()
	}
	wg.Wait()
}
