package db

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Tx is a transaction. Reads see a consistent view (committed state plus
// the transaction's own writes); writes take exclusive row locks held
// until commit or abort (strict two-phase locking). Lock conflicts fail
// fast with ErrConflict rather than blocking — in the crash-only design,
// callers treat a conflict like any other retryable failure.
//
// Reads take only db.mu's shared side and return the live, immutable row
// without copying; writes and
// Commit take the exclusive side. A Tx is owned by one goroutine — its
// overlay is not synchronized — but the store may invalidate or abort it
// concurrently (crash, microreboot), which the atomic state word makes
// safe.
//
// Tx objects are recycled through a per-DB sync.Pool. The state word
// packs the transaction id (a monotonically increasing generation
// counter) with the done bit: state = id<<1 | done. Anyone holding a
// stale (tx, id) pair — the microreboot machinery aborts transactions it
// registered earlier — finishes it with a single compare-and-swap
// against the exact generation, so an abort that races the owner's
// commit plus a pool reuse can only fail closed (ErrTxDone), never
// touch the next borrower's state.
type Tx struct {
	db *DB
	// state = id<<1 | doneBit. The id doubles as a generation counter:
	// it changes on every pool reuse, so a CAS against a remembered id
	// detects use-after-recycle.
	state atomic.Uint64
	// writes buffers mutations: applied to tables (and the WAL) only at
	// commit. Key order is preserved for deterministic WAL contents.
	writes []walRecord
	// locked remembers the row locks held: table → row ids. Mutated only
	// under db.mu's write side.
	locked map[string]map[int64]struct{}
	// overlay holds the tx's own uncommitted writes for reads:
	// table → key → row (nil row means deleted). Owner-goroutine only.
	overlay map[string]map[int64]Row
}

// Begin starts a transaction. It takes no database lock: transaction ids
// come from an atomic counter and registration goes to a sharded table,
// so starting the read-only transactions that dominate the workload never
// queues behind a commit. The Tx object itself comes from a per-DB pool;
// in steady state Begin allocates nothing.
func (d *DB) Begin() (*Tx, error) {
	if d.crashed.Load() {
		return nil, ErrCrashed
	}
	// locked and overlay maps are created lazily on first write, so
	// read-only transactions (the bulk of the workload) allocate neither.
	tx, _ := d.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{db: d}
	}
	id := d.nextTx.Add(1)
	tx.state.Store(id << 1)
	d.txs.add(tx)
	// A crash may have landed between the check above and the add; make
	// sure no live Tx escapes a crashed database. The object is left to
	// the GC: the crash path may still be invalidating it.
	if d.crashed.Load() {
		tx.invalidate()
		d.txs.remove(id)
		return nil, ErrCrashed
	}
	return tx, nil
}

// Recycle returns a finished transaction to the per-DB pool. Only the
// goroutine that owns the Tx may call it, and only after its own Commit
// or Abort returned nil: a transaction finished by anyone else (crash
// invalidation, AbortAll, a scoped microreboot) must be left to the
// garbage collector instead, because the finisher may still be touching
// the object. Recycle refuses (and leaks) a transaction that is not
// done.
func (t *Tx) Recycle() {
	if t.state.Load()&1 == 0 {
		return
	}
	clear(t.writes)
	t.writes = t.writes[:0]
	t.locked = nil
	t.overlay = nil
	t.db.txPool.Put(t)
}

// invalidate marks the transaction unusable when the database crashes
// under it.
func (t *Tx) invalidate() {
	for {
		s := t.state.Load()
		if s&1 == 1 || t.state.CompareAndSwap(s, s|1) {
			return
		}
	}
}

// ID returns the transaction's identifier (its current generation).
func (t *Tx) ID() uint64 { return t.state.Load() >> 1 }

func (t *Tx) table(name string) (*table, error) {
	tbl, ok := t.db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return tbl, nil
}

// lock acquires the exclusive lock for (table, key) or fails fast.
// Caller holds db.mu's write side.
func (t *Tx) lock(tbl *table, tableName string, key int64) error {
	id := t.ID()
	owner, held := tbl.locks[key]
	if held && owner != id {
		t.db.conflicts.Add(1)
		return fmt.Errorf("%w: row %d of %s held by tx %d", ErrConflict, key, tableName, owner)
	}
	tbl.locks[key] = id
	if t.locked == nil {
		t.locked = map[string]map[int64]struct{}{}
	}
	set := t.locked[tableName]
	if set == nil {
		set = map[int64]struct{}{}
		t.locked[tableName] = set
	}
	set[key] = struct{}{}
	return nil
}

func (t *Tx) overlayGet(tableName string, key int64) (Row, bool) {
	if m, ok := t.overlay[tableName]; ok {
		if r, ok := m[key]; ok {
			return r, true
		}
	}
	return nil, false
}

func (t *Tx) overlaySet(tableName string, key int64, r Row) {
	if t.overlay == nil {
		t.overlay = map[string]map[int64]Row{}
	}
	m := t.overlay[tableName]
	if m == nil {
		m = map[int64]Row{}
		t.overlay[tableName] = m
	}
	m[key] = r
}

func (t *Tx) guard() error {
	if t.state.Load()&1 == 1 {
		return ErrTxDone
	}
	if t.db.crashed.Load() {
		return ErrCrashed
	}
	return nil
}

// Insert adds a new row with an auto-assigned primary key and returns the
// key. The row is validated against the schema.
func (t *Tx) Insert(tableName string, r Row) (int64, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if err := t.guard(); err != nil {
		return 0, err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		return 0, err
	}
	if err := tbl.validate(r); err != nil {
		return 0, err
	}
	key := tbl.nextKey
	tbl.nextKey++
	if err := t.lock(tbl, tableName, key); err != nil {
		return 0, err
	}
	row := r.clone()
	t.writes = append(t.writes, walRecord{Kind: recInsert, Table: tableName, Key: key, Row: row})
	t.overlaySet(tableName, key, row)
	return key, nil
}

// InsertWithKey adds a row under a caller-chosen primary key (used for
// dataset loading and the IDManager component, which generates
// application-specific primary keys).
func (t *Tx) InsertWithKey(tableName string, key int64, r Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if err := t.guard(); err != nil {
		return err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		return err
	}
	if err := tbl.validate(r); err != nil {
		return err
	}
	if _, exists := tbl.rows[key]; exists {
		return fmt.Errorf("%w: %d in %s", ErrDupKey, key, tableName)
	}
	if r, ok := t.overlayGet(tableName, key); ok && r != nil {
		return fmt.Errorf("%w: %d in %s (uncommitted)", ErrDupKey, key, tableName)
	}
	if err := t.lock(tbl, tableName, key); err != nil {
		return err
	}
	if key >= tbl.nextKey {
		tbl.nextKey = key + 1
	}
	row := r.clone()
	t.writes = append(t.writes, walRecord{Kind: recInsert, Table: tableName, Key: key, Row: row})
	t.overlaySet(tableName, key, row)
	return nil
}

// Get returns the row with the given key, honoring the transaction's own
// uncommitted writes. The returned row is the live, immutable table row
// (or the tx's overlay row) — callers must Clone before mutating.
//
// A committed row is one map probe under db.mu's shared side. Commit
// installs rows under the exclusive side, so a Get that starts after a
// Commit returned sees that commit's value or a newer one.
func (t *Tx) Get(tableName string, key int64) (Row, error) {
	if t.state.Load()&1 == 1 {
		return nil, ErrTxDone
	}
	if t.overlay != nil {
		if r, ok := t.overlayGet(tableName, key); ok {
			if r == nil {
				return nil, fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
			}
			return r, nil
		}
	}
	d := t.db
	d.mu.RLock()
	if d.crashed.Load() {
		d.mu.RUnlock()
		return nil, ErrCrashed
	}
	tbl, ok := d.tables[tableName]
	if !ok {
		d.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	r, ok := tbl.rows[key]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
	}
	return r, nil
}

// GetForUpdate returns the row like Get, but first acquires the row's
// exclusive lock (fail-fast with ErrConflict) — the store's
// SELECT ... FOR UPDATE. Read-modify-write cycles (the id-sequence
// counter being the canonical one) must use it for the read: a plain Get
// takes no lock, so two transactions could both read the same counter
// value if one commits between the other's read and write — a lost
// update that surfaces as duplicate primary keys downstream.
func (t *Tx) GetForUpdate(tableName string, key int64) (Row, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if err := t.guard(); err != nil {
		return nil, err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		return nil, err
	}
	if ov, ok := t.overlayGet(tableName, key); ok {
		if ov == nil {
			return nil, fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
		}
		if err := t.lock(tbl, tableName, key); err != nil {
			return nil, err
		}
		return ov, nil
	}
	r, ok := tbl.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
	}
	if err := t.lock(tbl, tableName, key); err != nil {
		return nil, err
	}
	return r, nil
}

// Update overwrites the row with the given key. The row is validated.
func (t *Tx) Update(tableName string, key int64, r Row) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if err := t.guard(); err != nil {
		return err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		return err
	}
	if err := tbl.validate(r); err != nil {
		return err
	}
	if ov, ok := t.overlayGet(tableName, key); ok && ov == nil {
		return fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
	}
	if _, ok := t.overlayGet(tableName, key); !ok {
		if _, exists := tbl.rows[key]; !exists {
			return fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
		}
	}
	if err := t.lock(tbl, tableName, key); err != nil {
		return err
	}
	row := r.clone()
	t.writes = append(t.writes, walRecord{Kind: recUpdate, Table: tableName, Key: key, Row: row})
	t.overlaySet(tableName, key, row)
	return nil
}

// Delete removes the row with the given key.
func (t *Tx) Delete(tableName string, key int64) error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	if err := t.guard(); err != nil {
		return err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		return err
	}
	if ov, ok := t.overlayGet(tableName, key); ok && ov == nil {
		return fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
	}
	if _, ok := t.overlayGet(tableName, key); !ok {
		if _, exists := tbl.rows[key]; !exists {
			return fmt.Errorf("%w: %d in %s", ErrNoRow, key, tableName)
		}
	}
	if err := t.lock(tbl, tableName, key); err != nil {
		return err
	}
	t.writes = append(t.writes, walRecord{Kind: recDelete, Table: tableName, Key: key})
	t.overlaySet(tableName, key, nil)
	return nil
}

// Lookup returns, in ascending order, the keys of the rows whose indexed
// column equals value, as this transaction sees them: committed rows
// merged with its own uncommitted writes. The column must be declared in
// Schema.Indexes.
//
// Like the rows of Get and Scan, the slice is shared and immutable: with
// no writes of its own to the table, the transaction gets the index's
// live list, which no later commit changes. Clone it before modifying; an
// append already reallocates.
func (t *Tx) Lookup(tableName, column string, value any) ([]int64, error) {
	t.db.mu.RLock()
	if err := t.guard(); err != nil {
		t.db.mu.RUnlock()
		return nil, err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		t.db.mu.RUnlock()
		return nil, err
	}
	idx, ok := tbl.indexes[column]
	if !ok {
		t.db.mu.RUnlock()
		return nil, fmt.Errorf("db: no index on %s.%s", tableName, column)
	}
	// Clipped, so a caller's append can never write into the index.
	keys := slices.Clip(idx[value])
	t.db.mu.RUnlock()
	ov := t.overlay[tableName]
	if len(ov) == 0 {
		return keys, nil
	}
	// Merge this transaction's overlay (owner-only state; no lock needed)
	// into a private copy.
	keys = slices.Clone(keys)
	for id, row := range ov {
		i, listed := slices.BinarySearch(keys, id)
		matches := row != nil && row[column] == value
		switch {
		case listed && !matches:
			keys = slices.Delete(keys, i, i+1)
		case !listed && matches:
			keys = slices.Insert(keys, i, id)
		}
	}
	return keys, nil
}

// Scan calls fn for every committed row (merged with the transaction's
// overlay) in ascending key order. Rows passed to fn are the live,
// immutable table rows — fn may retain them but must not mutate. With no
// writes of its own to the table, the transaction walks the table's live
// key list without allocating.
func (t *Tx) Scan(tableName string, fn func(key int64, r Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if err := t.guard(); err != nil {
		return err
	}
	tbl, err := t.table(tableName)
	if err != nil {
		return err
	}
	ov := t.overlay[tableName]
	if len(ov) == 0 {
		for _, k := range tbl.keys {
			if !fn(k, tbl.rows[k]) {
				return nil
			}
		}
		return nil
	}
	// The overlay's own inserts, merged into the live list in order; its
	// updates and deletes replace or hide the rows they name.
	var added []int64
	for k, row := range ov {
		if _, listed := slices.BinarySearch(tbl.keys, k); row != nil && !listed {
			added = append(added, k)
		}
	}
	slices.Sort(added)
	keys := tbl.keys
	for len(keys) > 0 || len(added) > 0 {
		var k int64
		if len(added) == 0 || len(keys) > 0 && keys[0] < added[0] {
			k, keys = keys[0], keys[1:]
		} else {
			k, added = added[0], added[1:]
		}
		row, mine := ov[k]
		if !mine {
			row = tbl.rows[k]
		}
		if row != nil && !fn(k, row) {
			return nil
		}
	}
	return nil
}

// Commit atomically applies the transaction's writes, appends them to the
// WAL (if the database has one), and releases all locks. When the WAL
// writes to a sink, the sink flush happens via group commit: this committer may ride another
// commit's flush, and it waits for that flush only after releasing the
// database lock, so concurrent commits coalesce instead of serializing
// one flush each.
//
// Read-only transactions take a fast path: no exclusive lock, no WAL
// commit mark — committing a transaction with no writes is a pure
// bookkeeping operation.
func (t *Tx) Commit() error {
	d := t.db
	if len(t.writes) == 0 {
		s := t.state.Load()
		if s&1 == 1 || !t.state.CompareAndSwap(s, s|1) {
			return ErrTxDone
		}
		d.txs.remove(s >> 1)
		d.commits.Add(1)
		return nil
	}
	d.mu.Lock()
	s := t.state.Load()
	if s&1 == 1 || !t.state.CompareAndSwap(s, s|1) {
		d.mu.Unlock()
		return ErrTxDone
	}
	id := s >> 1
	d.txs.remove(id)
	// Durability first: the WAL records the commit before tables mutate.
	// The records are staged (or, without a sink, appended to the
	// history) synchronously here; only the sink flush is deferred to the
	// group. A WAL whose sink failed takes nothing more, and the commit
	// changes nothing.
	wait, err := d.wal.appendCommit(id, t.writes)
	if err != nil {
		t.releaseLocks()
		d.mu.Unlock()
		return err
	}
	for _, w := range t.writes {
		tbl := d.tables[w.Table]
		switch w.Kind {
		case recInsert, recUpdate:
			// The row is the transaction's own copy (Insert and Update
			// clone) and rows are immutable once written, so the table
			// and the log share it.
			tbl.indexMove(w.Key, tbl.rows[w.Key], w.Row)
			tbl.rows[w.Key] = w.Row
		case recDelete:
			if old, ok := tbl.rows[w.Key]; ok {
				tbl.indexMove(w.Key, old, nil)
				delete(tbl.rows, w.Key)
			}
		}
	}
	t.releaseLocks()
	d.commits.Add(1)
	d.mu.Unlock()
	return wait.Wait()
}

// Abort discards the transaction's writes and releases all locks. The
// container calls this automatically for transactions open at µRB time:
// "If an EJB is involved in any transactions at the time of a microreboot,
// they are all automatically aborted by the container and rolled back by
// the database."
func (t *Tx) Abort() error {
	d := t.db
	d.mu.Lock()
	defer d.mu.Unlock()
	s := t.state.Load()
	if s&1 == 1 || !t.state.CompareAndSwap(s, s|1) {
		return ErrTxDone
	}
	d.txs.remove(s >> 1)
	t.releaseLocks()
	d.aborts.Add(1)
	return nil
}

// AbortIf aborts the transaction only if it still carries the given id.
// Holders of a remembered (tx, id) pair — the microreboot machinery,
// which registers transactions and rolls them back later — must use this
// instead of Abort: because Tx objects are pooled, the pointer may by
// now belong to a different transaction entirely, and the
// exact-generation compare-and-swap makes such a stale abort fail closed
// with ErrTxDone instead of killing the new owner's transaction.
func (t *Tx) AbortIf(id uint64) error {
	d := t.db
	d.mu.Lock()
	defer d.mu.Unlock()
	if !t.state.CompareAndSwap(id<<1, id<<1|1) {
		return ErrTxDone
	}
	d.txs.remove(id)
	t.releaseLocks()
	d.aborts.Add(1)
	return nil
}

// Done reports whether the transaction has committed or aborted.
func (t *Tx) Done() bool {
	return t.state.Load()&1 == 1
}

// releaseLocks drops all row locks. Caller holds db.mu's write side.
func (t *Tx) releaseLocks() {
	id := t.ID()
	for tableName, keys := range t.locked {
		tbl := t.db.tables[tableName]
		if tbl == nil {
			continue
		}
		for k := range keys {
			if tbl.locks[k] == id {
				delete(tbl.locks, k)
			}
		}
	}
	t.locked = nil
}

// AbortAll aborts every open transaction whose id is accepted by keep
// returning false. Passing nil aborts all open transactions. It returns
// the number collected. The microreboot machinery uses this to roll back
// transactions belonging to rebooted components. Each victim is aborted
// with its collected id, so one that finishes (and is pool-recycled)
// between collection and abort is skipped rather than re-aborted under
// its new owner.
func (d *DB) AbortAll(keep func(txID uint64) bool) int {
	victims := d.txs.collect(keep)
	for _, v := range victims {
		_ = v.tx.AbortIf(v.id) // already-finished txs are fine
	}
	return len(victims)
}
