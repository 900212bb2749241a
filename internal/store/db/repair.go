package db

import (
	"fmt"
	"sort"
)

// Corruption support and table repair.
//
// The fault-injection campaign of Table 2 corrupts database table contents
// "by manually altering table contents" — bypassing the transactional
// API — and observes that recovery requires database table repair (no
// reboot level fixes it). These entry points reproduce that: CorruptRow
// replaces a live row with a damaged copy without validation or logging,
// CheckTable detects schema violations, and RepairTable restores the
// damaged table from the authoritative WAL history.

// CorruptRow overwrites one column of a committed row, bypassing
// validation, locking and the WAL — as a stray pointer or operator error
// would. It returns the previous value.
//
// The damage is installed copy-on-write (clone, mutate the clone, swap it
// in) so readers already holding the old row never observe a torn write;
// they simply keep the pre-corruption value, as a racing read would under
// any serialization.
func (d *DB) CorruptRow(tableName string, key int64, column string, value any) (any, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed.Load() {
		return nil, ErrCrashed
	}
	tbl, ok := d.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	row, ok := tbl.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
	}
	old := row[column]
	damaged := row.clone()
	damaged[column] = value
	tbl.indexMove(key, row, damaged)
	tbl.rows[key] = damaged
	return old, nil
}

// SwapRows swaps the contents of two rows ("wrong value" corruption: data
// that is valid from the schema's point of view but semantically wrong,
// e.g. swapping IDs between two users).
func (d *DB) SwapRows(tableName string, a, b int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed.Load() {
		return ErrCrashed
	}
	tbl, ok := d.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	ra, ok := tbl.rows[a]
	if !ok {
		return fmt.Errorf("%w: %d in %s", ErrNoRow, a, tableName)
	}
	rb, ok := tbl.rows[b]
	if !ok {
		return fmt.Errorf("%w: %d in %s", ErrNoRow, b, tableName)
	}
	tbl.indexMove(a, ra, rb)
	tbl.indexMove(b, rb, ra)
	tbl.rows[a], tbl.rows[b] = rb, ra
	return nil
}

// CheckTable validates every row of a table against its schema and
// returns the keys of rows that fail ("null" and "invalid" corruption are
// detectable this way; "wrong value" corruption is not, which is why the
// paper marks those cases as requiring manual repair). It only reads, so
// it runs under the shared lock, concurrent with live traffic.
func (d *DB) CheckTable(tableName string) ([]int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.crashed.Load() {
		return nil, ErrCrashed
	}
	tbl, ok := d.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	var bad []int64
	for key, row := range tbl.rows {
		if err := tbl.validate(row); err != nil {
			bad = append(bad, key)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad, nil
}

// RepairTable rebuilds a single table from the WAL's committed in-memory
// history, discarding any unlogged (corrupted) modifications. It returns
// the number of rows restored. This is the "database table repair"
// recovery action of Table 2. A database whose log keeps no history
// returns ErrNoHistory and keeps the table as it is.
func (d *DB) RepairTable(tableName string) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed.Load() {
		return 0, ErrCrashed
	}
	old, ok := d.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	recs, err := d.wal.committed()
	if err != nil {
		return 0, err
	}
	fresh := newTable(old.schema)
	for _, rec := range recs {
		if rec.Table != tableName {
			continue
		}
		switch rec.Kind {
		case recInsert, recUpdate:
			fresh.indexMove(rec.Key, fresh.rows[rec.Key], rec.Row)
			fresh.rows[rec.Key] = rec.Row
			if rec.Key >= fresh.nextKey {
				fresh.nextKey = rec.Key + 1
			}
		case recDelete:
			fresh.indexMove(rec.Key, fresh.rows[rec.Key], nil)
			delete(fresh.rows, rec.Key)
		}
	}
	// Preserve the key allocator high-water mark.
	if old.nextKey > fresh.nextKey {
		fresh.nextKey = old.nextKey
	}
	d.tables[tableName] = fresh
	return len(fresh.rows), nil
}
