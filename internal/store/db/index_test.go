package db

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// checkIndexes is the index oracle: it recomputes every secondary index
// of every table from the table's rows and requires the live index to
// hold exactly that, each key list strictly ascending, with no value
// left behind holding an empty list. The table's own key list must be
// the ascending keys of its rows.
func checkIndexes(t *testing.T, d *DB) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	for name, tbl := range d.tables {
		if want := slices.Sorted(maps.Keys(tbl.rows)); !slices.Equal(tbl.keys, want) {
			t.Fatalf("%s: key list %v, rows say %v", name, tbl.keys, want)
		}
		for col, idx := range tbl.indexes {
			want := map[any][]int64{}
			for id, r := range tbl.rows {
				want[r[col]] = append(want[r[col]], id)
			}
			for v, ids := range idx {
				if len(ids) == 0 {
					t.Fatalf("%s.%s: value %v left with an empty list", name, col, v)
				}
				for i := 1; i < len(ids); i++ {
					if ids[i-1] >= ids[i] {
						t.Fatalf("%s.%s = %v: list %v not strictly ascending", name, col, v, ids)
					}
				}
			}
			for v, ids := range want {
				slices.Sort(ids)
				if !slices.Equal(idx[v], ids) {
					t.Fatalf("%s.%s = %v: index lists %v, rows say %v", name, col, v, idx[v], ids)
				}
			}
			if len(idx) != len(want) {
				t.Fatalf("%s.%s: index has %d values, rows have %d", name, col, len(idx), len(want))
			}
		}
	}
}

// TestLookupResultNeverChanges: a Lookup result is the index's live list,
// so no later write, corruption or recovery may change it under the
// caller. Every result taken along the way must still equal the copy
// saved when it was returned.
func TestLookupResultNeverChanges(t *testing.T) {
	d := newUserDB(t)
	user := func(region int64) Row { return Row{"name": "u", "rating": int64(0), "region": region} }
	commit := func(write func(tx *Tx) error) {
		t.Helper()
		tx := mustBegin(t, d)
		if err := write(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(func(tx *Tx) error {
		for _, k := range []int64{10, 20, 30} {
			if err := tx.InsertWithKey("users", k, user(1)); err != nil {
				return err
			}
		}
		return nil
	})

	type result struct{ live, saved []int64 }
	var results []result
	take := func(step string) {
		t.Helper()
		tx := mustBegin(t, d)
		keys, err := tx.Lookup("users", "region", int64(1))
		if err != nil {
			t.Fatalf("%s: Lookup: %v", step, err)
		}
		_ = tx.Commit()
		results = append(results, result{keys, slices.Clone(keys)})
		for i, r := range results {
			if !slices.Equal(r.live, r.saved) {
				t.Fatalf("after %s: result %d changed from %v to %v", step, i, r.saved, r.live)
			}
			// A caller's append, even to a result the index has since
			// grown past, must never write into the index.
			_ = append(r.live, -1)
		}
		checkIndexes(t, d)
	}

	take("load")
	commit(func(tx *Tx) error { return tx.InsertWithKey("users", 40, user(1)) })
	take("append")
	commit(func(tx *Tx) error { return tx.InsertWithKey("users", 15, user(1)) })
	take("middle insert")
	commit(func(tx *Tx) error { return tx.Delete("users", 20) })
	take("delete")
	commit(func(tx *Tx) error { return tx.Update("users", 10, user(2)) })
	take("update away")
	if _, err := d.CorruptRow("users", 30, "region", int64(3)); err != nil {
		t.Fatal(err)
	}
	take("CorruptRow")
	if err := d.SwapRows("users", 10, 15); err != nil {
		t.Fatal(err)
	}
	take("SwapRows")
	if _, err := d.RepairTable("users"); err != nil {
		t.Fatal(err)
	}
	take("RepairTable")
	if want := []int64{15, 30, 40}; !slices.Equal(results[len(results)-1].live, want) {
		t.Fatalf("after repair region 1 lists %v, want %v", results[len(results)-1].live, want)
	}
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	take("Crash+Recover")
	if want := []int64{15, 30, 40}; !slices.Equal(results[len(results)-1].live, want) {
		t.Fatalf("after recovery region 1 lists %v, want %v", results[len(results)-1].live, want)
	}
}

// FuzzIndexOps drives one transaction at a time through a decoded stream
// of writes, commits, aborts, lookups and crashes, against a model of the
// committed rows and the open transaction's own writes. Every Lookup must
// match the model, both in the writing transaction and in a fresh one;
// after every step, a Scan in the open transaction must give the model's
// rows in ascending key order; the index oracle runs after every commit
// and recovery.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 5, 0, 0, 7, 1, 0})
	f.Add([]byte{1, 9, 1, 1, 4, 1, 1, 2, 1, 5, 0, 0, 2, 4, 2, 7, 1, 0, 5, 0, 0})
	f.Add([]byte{1, 5, 3, 5, 0, 0, 2, 5, 0, 7, 0, 3, 3, 3, 0, 4, 3, 0, 7, 0, 0, 8, 0, 0, 7, 3, 1})
	f.Fuzz(indexOps)
}

// indexOps runs one FuzzIndexOps input.
func indexOps(t *testing.T, ops []byte) {
	type row struct{ g, n int64 }
	d := New(NewWAL())
	schema := Schema{
		Name:    "t",
		Columns: []Column{{Name: "g", Type: Int}, {Name: "h", Type: Str}, {Name: "n", Type: Int}},
		Indexes: []string{"g", "h"},
	}
	if err := d.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	h := func(g int64) string { return fmt.Sprint("h", g%2) }
	dbRow := func(r row) Row { return Row{"g": r.g, "h": h(r.g), "n": r.n} }
	committed := map[int64]row{}
	pending := map[int64]*row{} // nil: deleted by the open transaction
	get := func(k int64) (row, bool) {
		if r, ok := pending[k]; ok {
			if r == nil {
				return row{}, false
			}
			return *r, true
		}
		r, ok := committed[k]
		return r, ok
	}
	view := func() map[int64]row {
		v := maps.Clone(committed)
		for k, r := range pending {
			if r == nil {
				delete(v, k)
			} else {
				v[k] = *r
			}
		}
		return v
	}
	tx := mustBegin(t, d)
	restart := func() {
		clear(pending)
		tx = mustBegin(t, d)
	}
	// want reports the keys a Lookup should return: ascending keys of
	// rows in v whose g (by g) or h matches.
	want := func(v map[int64]row, byG bool, g int64) []int64 {
		var ks []int64
		for k, r := range v {
			if (byG && r.g == g) || (!byG && h(r.g) == h(g)) {
				ks = append(ks, k)
			}
		}
		slices.Sort(ks)
		return ks
	}
	lookup := func(tx *Tx, v map[int64]row, g int64) {
		t.Helper()
		for _, byG := range []bool{true, false} {
			col, val := "g", any(g)
			if !byG {
				col, val = "h", h(g)
			}
			got, err := tx.Lookup("t", col, val)
			if err != nil {
				t.Fatal(err)
			}
			if w := want(v, byG, g); !slices.Equal(got, w) {
				t.Fatalf("Lookup(%s=%v) = %v, want %v", col, val, got, w)
			}
		}
	}
	scan := func(tx *Tx, v map[int64]row) {
		t.Helper()
		var got []int64
		err := tx.Scan("t", func(k int64, r Row) bool {
			if w, ok := v[k]; !ok || !reflect.DeepEqual(r, dbRow(w)) {
				t.Fatalf("Scan row %d = %v, want %v (present %v)", k, r, dbRow(w), ok)
			}
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := slices.Sorted(maps.Keys(v)); !slices.Equal(got, want) {
			t.Fatalf("Scan keys = %v, want %v", got, want)
		}
	}
	// The model checks cost linear time per op; a bounded stream
	// keeps each input fast.
	const maxOps = 256
	if len(ops) > 3*maxOps {
		ops = ops[:3*maxOps]
	}
	for len(ops) >= 3 {
		op, key, arg := ops[0]%9, int64(ops[1]%16+1), int64(ops[2])
		ops = ops[3:]
		g := arg % 4
		cur, visible := get(key)
		switch op {
		case 0: // Insert with an auto key
			k, err := tx.Insert("t", dbRow(row{g, arg}))
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := get(k); dup {
				t.Fatalf("Insert returned visible key %d", k)
			}
			pending[k] = &row{g, arg}
		case 1: // InsertWithKey
			_, isCommitted := committed[key]
			err := tx.InsertWithKey("t", key, dbRow(row{g, arg}))
			if isCommitted || visible {
				if !errors.Is(err, ErrDupKey) {
					t.Fatalf("InsertWithKey(%d) over a row: err = %v", key, err)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			pending[key] = &row{g, arg}
		case 2, 3: // Update, moving the row to another g (2) or not (3)
			r := row{g, arg}
			if op == 3 {
				r.g = cur.g
			}
			err := tx.Update("t", key, dbRow(r))
			if !visible {
				if !errors.Is(err, ErrNoRow) {
					t.Fatalf("Update(%d) of no row: err = %v", key, err)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			pending[key] = &r
		case 4: // Delete
			err := tx.Delete("t", key)
			if !visible {
				if !errors.Is(err, ErrNoRow) {
					t.Fatalf("Delete(%d) of no row: err = %v", key, err)
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			pending[key] = nil
		case 5: // Commit
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committed = view()
			checkIndexes(t, d)
			restart()
		case 6: // Abort
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			restart()
		case 7: // Lookup, in the open transaction and in a fresh one
			lookup(tx, view(), g)
			ro := mustBegin(t, d)
			lookup(ro, committed, g)
			_ = ro.Abort()
		case 8: // Crash + Recover: the open transaction is lost
			d.Crash()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			checkIndexes(t, d)
			restart()
		}
		scan(tx, view())
	}
	_ = tx.Abort()
	for g := int64(0); g < 4; g++ {
		ro := mustBegin(t, d)
		lookup(ro, committed, g)
		_ = ro.Abort()
	}
}
