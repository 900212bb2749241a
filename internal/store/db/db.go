// Package db implements a crash-safe transactional table store — the
// persistence tier of the reproduction, standing in for the MySQL database
// used by the paper's eBid prototype.
//
// Like the original, the store:
//
//   - gives entity components container-managed persistence: each entity
//     instance's state maps to a row in a table;
//   - aborts and rolls back any transactions still open when the component
//     driving them is microrebooted;
//   - is crash-safe: committed data survives a crash via a write-ahead
//     log, and recovery replays the log (the paper notes "MySQL is
//     crash-safe and recovers fast for our datasets");
//   - supports deliberate corruption of table contents and subsequent
//     table repair, reproducing the "corrupt data inside MySQL" row of
//     Table 2 (worst case: database table repair needed).
//
// The store is safe for concurrent use. The read path is concurrent:
// Get/Lookup/Scan take only a shared lock (Commit keeps exclusivity), rows
// are immutable once installed, and readers receive the live row, never a
// copy. Secondary indexes keep each value's row keys as an ascending list
// that no write changes once published, so Lookup likewise returns the
// live list: an index query is one map probe, with no copy and no sort.
package db

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ColType enumerates the column types supported by the store.
type ColType int

// Supported column types.
const (
	Int ColType = iota
	Str
	Float
	Bool
)

func (t ColType) String() string {
	switch t {
	case Int:
		return "int"
	case Str:
		return "str"
	case Float:
		return "float"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one column of a table schema.
type Column struct {
	Name     string
	Type     ColType
	Nullable bool
	// MinInt/MaxInt bound Int columns when Checked is true; used by
	// integrity checking to detect "invalid" corruption (e.g. a userID
	// larger than the maximum userID).
	Checked int64
	MinInt  int64
	MaxInt  int64
}

// Schema describes a table: its name, columns, and secondary indexes.
type Schema struct {
	Name    string
	Columns []Column
	// Indexes lists column names to maintain equality indexes on.
	Indexes []string
}

// Row is a single record: column name to value. Values must be int64,
// string, float64, bool, or nil (for nullable columns).
//
// Rows handed out by Get and Scan are the live table rows: they must be
// treated as immutable. Mutation goes through the transactional write API
// (which installs a fresh row object on commit, copy-on-write) — callers
// that want to derive an updated row Clone first.
type Row map[string]any

// clone returns a deep-enough copy (values are scalars).
func (r Row) clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Clone returns a copy of the row. Rows returned by Get/Scan are shared,
// immutable objects; Clone before mutating.
func (r Row) Clone() Row { return r.clone() }

// Errors returned by the store.
var (
	ErrNoTable      = errors.New("db: no such table")
	ErrNoRow        = errors.New("db: no such row")
	ErrDupKey       = errors.New("db: duplicate primary key")
	ErrTxDone       = errors.New("db: transaction already finished")
	ErrConflict     = errors.New("db: lock conflict")
	ErrBadValue     = errors.New("db: value violates schema")
	ErrCrashed      = errors.New("db: database is crashed")
	ErrDupTable     = errors.New("db: table already exists")
	ErrRowCorrupted = errors.New("db: row failed integrity check")
)

// table holds the live rows and indexes for one schema.
type table struct {
	schema Schema
	rows   map[int64]Row
	// keys lists the keys of rows, ascending, for Scan. It follows the
	// indexes' rule below: a published slice is never written below its
	// length.
	keys []int64
	// indexes: column name → value → ascending ids of the rows holding
	// that value. Lookup hands the live slice to readers, so a published
	// slice is never written below its length: an id larger than the last
	// one is appended (past every published length), a middle insert or a
	// removal builds a new slice, and a value left with no rows is
	// deleted.
	indexes map[string]map[any][]int64
	// locks: row id → owning transaction id (simple exclusive row locks).
	locks   map[int64]uint64
	nextKey int64
}

func newTable(s Schema) *table {
	t := &table{
		schema:  s,
		rows:    map[int64]Row{},
		indexes: map[string]map[any][]int64{},
		locks:   map[int64]uint64{},
		nextKey: 1,
	}
	for _, col := range s.Indexes {
		t.indexes[col] = map[any][]int64{}
	}
	return t
}

// indexMove re-indexes row id from its contents from to its contents to,
// touching only the columns whose value changed. A nil from is an insert,
// a nil to a delete; they also add id to the table's key list and remove
// it.
func (t *table) indexMove(id int64, from, to Row) {
	switch {
	case from == nil && to != nil:
		t.keys = listAdd(t.keys, id)
	case from != nil && to == nil:
		t.keys = listRemove(t.keys, id)
	}
	for col, idx := range t.indexes {
		fv, tv := from[col], to[col]
		if from != nil && to != nil && fv == tv {
			continue
		}
		if from != nil {
			indexRemove(idx, fv, id)
		}
		if to != nil {
			indexAdd(idx, tv, id)
		}
	}
}

// indexAdd lists id under value v.
func indexAdd(idx map[any][]int64, v any, id int64) {
	idx[v] = listAdd(idx[v], id)
}

// indexRemove drops id from the list under value v.
func indexRemove(idx map[any][]int64, v any, id int64) {
	if s := listRemove(idx[v], id); len(s) > 0 {
		idx[v] = s
	} else {
		delete(idx, v)
	}
}

// listAdd returns the ascending list s with id in it. An id larger than
// the last is appended, past every published length; a middle insert
// builds a new slice.
func listAdd(s []int64, id int64) []int64 {
	n := len(s)
	if n == 0 || s[n-1] < id {
		return append(s, id)
	}
	if i, found := slices.BinarySearch(s, id); !found {
		return slices.Concat(s[:i], []int64{id}, s[i:])
	}
	return s
}

// listRemove returns the ascending list s without id, in a new slice when
// s held it.
func listRemove(s []int64, id int64) []int64 {
	i, found := slices.BinarySearch(s, id)
	switch {
	case !found:
		return s
	case len(s) == 1:
		return nil
	}
	return slices.Concat(s[:i], s[i+1:])
}

// validate checks r against the schema: every column it holds is one of
// the schema's, of the column's type, and its strings total at most
// maxRowText bytes, so that its log frame stays under the cap that
// LoadWAL reads. Corrupted writes bypass this via the fault-injection
// entry points.
func (t *table) validate(r Row) error {
	present, text := 0, 0
	for _, col := range t.schema.Columns {
		v, ok := r[col.Name]
		if ok {
			present++
		}
		if v == nil {
			if col.Nullable {
				continue
			}
			return fmt.Errorf("%w: column %s of %s is not nullable", ErrBadValue, col.Name, t.schema.Name)
		}
		switch col.Type {
		case Int:
			iv, ok := v.(int64)
			if !ok {
				return fmt.Errorf("%w: column %s wants int64, got %T", ErrBadValue, col.Name, v)
			}
			if col.Checked != 0 && (iv < col.MinInt || iv > col.MaxInt) {
				return fmt.Errorf("%w: column %s value %d outside [%d,%d]", ErrBadValue, col.Name, iv, col.MinInt, col.MaxInt)
			}
		case Str:
			sv, ok := v.(string)
			if !ok {
				return fmt.Errorf("%w: column %s wants string, got %T", ErrBadValue, col.Name, v)
			}
			text += len(sv)
		case Float:
			fv, ok := v.(float64)
			if !ok {
				return fmt.Errorf("%w: column %s wants float64, got %T", ErrBadValue, col.Name, v)
			}
			// No amount is infinite, and a NaN never equals itself: an
			// index could never find it again.
			if math.IsNaN(fv) || math.IsInf(fv, 0) {
				return fmt.Errorf("%w: column %s value %v is not finite", ErrBadValue, col.Name, fv)
			}
		case Bool:
			if _, ok := v.(bool); !ok {
				return fmt.Errorf("%w: column %s wants bool, got %T", ErrBadValue, col.Name, v)
			}
		}
	}
	if present != len(r) {
		return fmt.Errorf("%w: a row of %s holds a column outside its schema", ErrBadValue, t.schema.Name)
	}
	if text > maxRowText {
		return fmt.Errorf("%w: a row of %s holds %d bytes of strings, more than %d", ErrBadValue, t.schema.Name, text, maxRowText)
	}
	return nil
}

// txShardCount shards the open-transaction table so Begin/Commit pairs on
// the read path never funnel through one mutex.
const txShardCount = 16

// txTable tracks live transactions so a crash can invalidate them and a
// microreboot can abort them. Sharded by transaction id.
type txTable struct {
	shards [txShardCount]txShard
}

type txShard struct {
	mu sync.Mutex
	m  map[uint64]*Tx
	// pad the shard to a cache line so neighboring shards don't false-share.
	_ [40]byte
}

func (tt *txTable) shard(id uint64) *txShard { return &tt.shards[id%txShardCount] }

func (tt *txTable) add(tx *Tx) {
	id := tx.ID()
	s := tt.shard(id)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint64]*Tx{}
	}
	s.m[id] = tx
	s.mu.Unlock()
}

func (tt *txTable) remove(id uint64) {
	s := tt.shard(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// invalidateAll marks every tracked transaction done and clears the table
// (the crash path).
func (tt *txTable) invalidateAll() {
	for i := range tt.shards {
		s := &tt.shards[i]
		s.mu.Lock()
		for _, tx := range s.m {
			tx.invalidate()
		}
		clear(s.m)
		s.mu.Unlock()
	}
}

// txRef pins a transaction pointer to the generation it carried when
// collected, so a later abort can be generation-checked (AbortIf).
type txRef struct {
	tx *Tx
	id uint64
}

// collect returns the tracked transactions rejected by keep (nil keep
// collects all), each paired with its id at collection time.
func (tt *txTable) collect(keep func(txID uint64) bool) []txRef {
	var out []txRef
	for i := range tt.shards {
		s := &tt.shards[i]
		s.mu.Lock()
		for id, tx := range s.m {
			if keep == nil || !keep(id) {
				out = append(out, txRef{tx: tx, id: id})
			}
		}
		s.mu.Unlock()
	}
	return out
}

// DB is the database instance.
//
// Locking: mu is a reader/writer lock over the table state. Reads
// (Get/Lookup/Scan/RowCount/...) take the shared side; anything that
// mutates tables, rows, indexes or row locks (Insert/Update/Delete,
// Commit, Crash/Recover, corruption/repair) takes the exclusive side.
// Rows installed in tables are immutable — every write installs a fresh
// Row object — so readers may hand the live row to callers without
// copying. A point read is one map probe under the shared side; since a
// commit installs its rows before releasing the exclusive side, a read
// that starts after Commit returned sees that commit or a newer one. The
// statistics counters are atomics so reads never touch mu's write side.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	wal    *WAL
	nextTx atomic.Uint64
	// crashed is set under mu (write side) and is an atomic so Begin can
	// check it without taking mu at all.
	crashed atomic.Bool
	// txs tracks live transactions so a crash can invalidate them.
	txs txTable
	// txPool recycles Tx objects (see Tx.Recycle). Per-DB so a pooled
	// Tx's db pointer never changes, which keeps the generation-checked
	// abort path (AbortIf) free of racy field rewrites.
	txPool sync.Pool
	// stats
	commits, aborts, conflicts atomic.Uint64
}

// New creates an empty database writing its log to the given WAL. A nil
// wal means no log at all: commits are not logged, and Recover and
// RepairTable return ErrNoHistory. A database that must replay its
// history in-process (the simulator's Crash/Recover, table repair) takes
// NewWAL(); one whose log must outlive the process takes
// NewWALWithSink.
func New(wal *WAL) *DB {
	return &DB{tables: map[string]*table{}, wal: wal}
}

// CreateTable registers a new table.
func (d *DB) CreateTable(s Schema) error {
	d.mu.Lock()
	if d.crashed.Load() {
		d.mu.Unlock()
		return ErrCrashed
	}
	if _, ok := d.tables[s.Name]; ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDupTable, s.Name)
	}
	if schemaLen(&s)+nameLen(s.Name) > maxSchemaBytes {
		d.mu.Unlock()
		return fmt.Errorf("%w: the schema of %s encodes to more than %d bytes", ErrBadValue, s.Name, maxSchemaBytes)
	}
	d.tables[s.Name] = newTable(s)
	wait := d.wal.append(walRecord{Kind: recCreateTable, Table: s.Name, Schema: &s})
	d.mu.Unlock()
	// Wait for the sink flush outside d.mu so concurrent commits can form
	// a group behind this one.
	wait.Wait()
	return nil
}

// Tables returns the sorted table names.
func (d *DB) Tables() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats reports commit/abort/conflict counters.
func (d *DB) Stats() (commits, aborts, conflicts uint64) {
	return d.commits.Load(), d.aborts.Load(), d.conflicts.Load()
}

// Crash simulates a machine crash: all volatile state is dropped and every
// open transaction becomes unusable. Committed data remains in the WAL;
// call Recover to bring the database back (which needs a WAL that keeps
// its history in memory, see New).
func (d *DB) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed.Store(true)
	d.txs.invalidateAll()
	d.tables = map[string]*table{}
}

// Recover replays the WAL's in-memory history, restoring all committed
// state. It is the analog of MySQL's fast crash recovery. A database
// whose log keeps no history (no WAL, or one with a sink) returns
// ErrNoHistory and is left as it is.
func (d *DB) Recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	recs, err := d.wal.committed()
	if err != nil {
		return err
	}
	d.tables = map[string]*table{}
	for _, rec := range recs {
		switch rec.Kind {
		case recCreateTable:
			d.tables[rec.Table] = newTable(*rec.Schema)
		case recInsert, recUpdate:
			t := d.tables[rec.Table]
			if t == nil {
				return fmt.Errorf("db: WAL references unknown table %q", rec.Table)
			}
			t.indexMove(rec.Key, t.rows[rec.Key], rec.Row)
			t.rows[rec.Key] = rec.Row
			if rec.Key >= t.nextKey {
				t.nextKey = rec.Key + 1
			}
		case recDelete:
			t := d.tables[rec.Table]
			if t == nil {
				return fmt.Errorf("db: WAL references unknown table %q", rec.Table)
			}
			t.indexMove(rec.Key, t.rows[rec.Key], nil)
			delete(t.rows, rec.Key)
		}
	}
	d.crashed.Store(false)
	return nil
}

// Crashed reports whether the database is currently down.
func (d *DB) Crashed() bool {
	return d.crashed.Load()
}

// RowCount returns the number of rows in a table.
func (d *DB) RowCount(tableName string) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.crashed.Load() {
		return 0, ErrCrashed
	}
	t, ok := d.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	return len(t.rows), nil
}
