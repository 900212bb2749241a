package db

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"sync"
)

// recKind enumerates WAL record kinds.
type recKind int

const (
	recCreateTable recKind = iota
	recInsert
	recUpdate
	recDelete
	recCommitMark
)

// walRecord is one logical log entry. Table mutations are grouped under a
// commit mark; only marked groups are replayed by Recover, so a crash
// mid-commit never exposes partial transactions.
type walRecord struct {
	Kind   recKind `json:"kind"`
	Table  string  `json:"table,omitempty"`
	Key    int64   `json:"key,omitempty"`
	Row    Row     `json:"row,omitempty"`
	Schema *Schema `json:"schema,omitempty"`
	TxID   uint64  `json:"tx,omitempty"`
}

// WAL is an append-only write-ahead log. It holds its history in exactly
// one place:
//
//   - Without a sink (NewWAL, and a WAL read back by LoadWAL) every record
//     stays in memory. That history is the simulator's stable storage:
//     Recover and RepairTable replay it.
//   - With a sink (NewWALWithSink, AttachSink) the sink is the record of
//     truth. A record is held in memory only from staging until the group
//     commit flush that writes it as a JSON line, so memory does not grow
//     with uptime. Such a WAL has no history to replay in-process; a
//     restarted process recovers with LoadWAL + Recover.
//
// Sink writes use group commit: concurrent committers staging while a
// flush is in flight coalesce into one batch, and the whole batch reaches
// the sink with a single Write — one flush per batch instead of one per
// transaction. Staging is done under w.mu in commit order, so the sink's
// record order always equals commit order.
type WAL struct {
	mu sync.Mutex
	// records is the whole history when there is no sink, and only the
	// records staged since the last seal when there is one. spare is the
	// cleared slice of the last flushed batch, swapped in at the next
	// seal so that staging reuses its capacity.
	records []walRecord
	spare   []walRecord
	// n counts the records logged or loaded.
	n    int
	sink io.Writer
	// open reports a batch that is staged but not yet sealed: the next
	// stager joins it instead of leading a new one. done is that batch's
	// wakeup channel, created by its first follower (a batch nobody
	// joins allocates none) and closed once the batch is on the sink.
	// Both guarded by mu.
	open bool
	done chan struct{}

	// flushMu serializes sink flushes; buf and enc belong to the flusher.
	flushMu sync.Mutex
	buf     bytes.Buffer
	enc     *json.Encoder

	// group-commit stats, guarded by mu.
	batches  uint64
	flushed  uint64
	maxBatch int
}

// ErrNoHistory is returned by Recover and RepairTable on a database whose
// log keeps no history in memory: one built by New(nil), or one whose WAL
// writes to a sink.
var ErrNoHistory = errors.New("db: no in-memory log history to replay")

// NewWAL returns a WAL that keeps its whole history in memory.
func NewWAL() *WAL { return &WAL{} }

// NewWALWithSink returns a WAL that writes every record to w and keeps
// none of them in memory once written.
func NewWALWithSink(w io.Writer) *WAL {
	wal := &WAL{sink: w}
	wal.enc = json.NewEncoder(&wal.buf)
	return wal
}

// LoadWAL reads a sink file's JSON-line records back into a fresh WAL
// without a sink — the crash-safe startup path of a process whose
// previous incarnation wrote its log to disk. Reading stops at the first
// record that is damaged (a crash mid-write leaves a torn tail) or not
// well-formed (see wellFormed); the returned offset is the byte position
// just past the last good record, which the caller should truncate the
// file to before appending new records. Commit-mark atomicity is
// untouched: a transaction whose mark fell past the good prefix is simply
// never replayed. Only a read error from r is returned as an error.
func LoadWAL(r io.Reader) (w *WAL, offset int64, err error) {
	w = &WAL{}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	schemas := map[string]*Schema{}
	for {
		var rec walRecord
		if derr := dec.Decode(&rec); derr != nil {
			if errors.Is(derr, io.EOF) {
				return w, offset, nil
			}
			var syn *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if errors.As(derr, &syn) || errors.As(derr, &typ) || errors.Is(derr, io.ErrUnexpectedEOF) {
				// Torn or damaged: keep what decoded cleanly.
				return w, offset, nil
			}
			return w, offset, derr
		}
		if rec.Kind == recCreateTable && rec.Schema != nil {
			schemas[rec.Table] = rec.Schema
		}
		restoreRowTypes(rec.Row, schemas[rec.Table])
		if !rec.wellFormed() {
			return w, offset, nil
		}
		w.records = append(w.records, rec)
		w.n++
		offset = dec.InputOffset()
	}
}

// wellFormed reports whether a decoded record is one Recover can replay:
// a known kind, a schema on a table creation, a table on a mutation, and
// a row of scalar values on an insert or update.
func (rec *walRecord) wellFormed() bool {
	switch rec.Kind {
	case recCreateTable:
		return rec.Schema != nil
	case recInsert, recUpdate:
		if rec.Table == "" || rec.Row == nil {
			return false
		}
		for _, v := range rec.Row {
			switch v.(type) {
			case nil, int64, float64, string, bool:
			default:
				return false
			}
		}
		return true
	case recDelete:
		return rec.Table != ""
	case recCommitMark:
		return true
	}
	return false
}

// restoreRowTypes converts json.Number values decoded from a sink file
// back to the Row contract's native Go types. encoding/json alone would
// hand every number back as float64, so an Int column recovered after a
// crash would no longer satisfy the int64 assertions the live code makes.
// The table's schema (logged by CreateTable, so always earlier in the WAL
// than any row touching it) decides; unknown columns fall back to
// int-then-float parsing.
func restoreRowTypes(r Row, s *Schema) {
	for k, v := range r {
		n, ok := v.(json.Number)
		if !ok {
			continue
		}
		if s != nil {
			if col, ok := s.column(k); ok {
				switch col.Type {
				case Int:
					if i, err := n.Int64(); err == nil {
						r[k] = i
						continue
					}
				case Float:
					if f, err := n.Float64(); err == nil {
						r[k] = f
						continue
					}
				}
			}
		}
		if i, err := n.Int64(); err == nil {
			r[k] = i
		} else if f, err := n.Float64(); err == nil {
			r[k] = f
		}
	}
}

// AttachSink makes sink the record of truth for a WAL that has none:
// records appended from here on are written to it, and the history
// already in memory (what LoadWAL read) is released, not rewritten. Call
// Recover before AttachSink; afterwards there is nothing left to replay.
func (w *WAL) AttachSink(sink io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = sink
	w.enc = json.NewEncoder(&w.buf)
	w.records = nil
}

// GroupCommitStats reports sink batching: batches flushed, records
// flushed, and the largest batch seen.
func (w *WAL) GroupCommitStats() (batches, records uint64, maxBatch int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.batches, w.flushed, w.maxBatch
}

// walWait is a pending sink flush: this stager's role in its batch. The
// batch leader performs the flush; a follower waits on the batch's done
// channel. The zero value waits for nothing, so the no-sink path needs
// no branch at the call sites. A value type — handing it back costs no
// allocation, unlike a wait closure.
type walWait struct {
	leader *WAL
	done   chan struct{}
}

// Wait blocks until the staged records reach the sink. Callers must not
// hold database locks (that is what lets concurrent commits pile into
// the batch).
func (ww walWait) Wait() {
	if ww.leader != nil {
		ww.leader.flushBatch()
		return
	}
	if ww.done != nil {
		<-ww.done
	}
}

// append logs one record. The returned walWait blocks until the record
// reaches the sink (no-op when there is no sink, or no WAL at all);
// callers must invoke it without holding database locks.
func (w *WAL) append(rec walRecord) walWait {
	if w == nil {
		return walWait{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.records = append(w.records, rec)
	w.n++
	return w.stageLocked()
}

// appendCommit writes a transaction's mutations followed by a commit mark,
// as one atomic group. The returned walWait is as for append.
func (w *WAL) appendCommit(txID uint64, writes []walRecord) walWait {
	if w == nil {
		return walWait{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rec := range writes {
		rec.TxID = txID
		w.records = append(w.records, rec)
	}
	w.records = append(w.records, walRecord{Kind: recCommitMark, TxID: txID})
	w.n += len(writes) + 1
	return w.stageLocked()
}

// stageLocked queues the records just appended for the sink, if there is
// one. Caller holds w.mu. The first stager after a seal leads the batch
// (its Wait performs the flush); later stagers join and their Waits just
// block on the leader.
func (w *WAL) stageLocked() walWait {
	if w.sink == nil {
		return walWait{}
	}
	if w.open {
		if w.done == nil {
			w.done = make(chan struct{})
		}
		return walWait{done: w.done}
	}
	w.open = true
	w.batches++
	return walWait{leader: w}
}

// flushBatch is the leader's wait: seal the batch and push it to the
// sink in one write. Commits staged while an earlier flush holds flushMu
// join this batch. flushMu makes flushes strictly sequential, so a new
// leader formed during this flush cannot overtake it.
func (w *WAL) flushBatch() {
	w.flushMu.Lock()
	// Seal: stagers from here on lead the next batch. Only one batch is
	// open at a time and only its leader seals it, so every staged record
	// is this batch's. Take them, and stage into the spare.
	w.mu.Lock()
	w.open = false
	done := w.done
	w.done = nil
	recs := w.records
	w.records, w.spare = w.spare, nil
	w.mu.Unlock()
	for i := range recs {
		_ = w.enc.Encode(recs[i]) // best-effort, like the write below
	}
	_, _ = w.sink.Write(w.buf.Bytes()) // best-effort, as a crash mid-write would be
	w.buf.Reset()
	w.mu.Lock()
	w.flushed += uint64(len(recs))
	w.maxBatch = max(w.maxBatch, len(recs))
	// The batch is written: drop it, keeping its capacity as the spare.
	clear(recs)
	w.spare = recs[:0]
	w.mu.Unlock()
	w.flushMu.Unlock()
	if done != nil {
		close(done)
	}
}

// Len returns the number of records logged or loaded, whether or not
// they are still held in memory.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// committed returns the replayable prefix of the in-memory history: table
// creations plus mutation groups that reached their commit mark. It
// returns ErrNoHistory when there is no WAL or the WAL writes to a sink.
func (w *WAL) committed() ([]walRecord, error) {
	if w == nil {
		return nil, ErrNoHistory
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sink != nil {
		return nil, ErrNoHistory
	}
	// First pass: find committed transaction ids.
	done := map[uint64]bool{}
	for _, rec := range w.records {
		if rec.Kind == recCommitMark {
			done[rec.TxID] = true
		}
	}
	var out []walRecord
	for _, rec := range w.records {
		switch rec.Kind {
		case recCreateTable:
			out = append(out, rec)
		case recInsert, recUpdate, recDelete:
			if done[rec.TxID] {
				out = append(out, rec)
			}
		}
	}
	return out, nil
}

// TruncateTail drops the last n records of the in-memory history of a
// WAL without a sink, simulating log damage for crash-recovery testing.
func (w *WAL) TruncateTail(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n = min(n, len(w.records))
	w.records = w.records[:len(w.records)-n]
	w.n -= n
}
