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

// walBatch is one group commit: the records of every transaction that
// staged while the previous flush was in flight, written to the sink as a
// single buffered write. Staging happens under the same lock as appending
// to the in-memory log, so a batch's records are always the contiguous
// range [start, end) of that log — no copy needed. done is created lazily
// by the first follower and closes once the batch is on the sink.
type walBatch struct {
	start, end int
	done       chan struct{}
}

// WAL is an append-only write-ahead log. Records live in memory and are
// optionally mirrored to an io.Writer as JSON lines for durability beyond
// the process (the experiments use the in-memory form; cmd/ebid-server can
// attach a file).
//
// Sink mirroring uses group commit: concurrent committers staging while a
// flush is in flight coalesce into one batch, and the whole batch reaches
// the sink with a single Write — one flush per batch instead of one per
// transaction. The in-memory record list stays authoritative and is
// appended synchronously under w.mu, so replay order always equals commit
// order and Recover's semantics are unchanged; only the sink's flush
// boundary moves.
type WAL struct {
	mu      sync.Mutex
	records []walRecord
	sink    io.Writer
	// cur is the open batch the next stager joins; nil when the next
	// stager should lead a new batch. free is a spent batch available for
	// reuse (only batches no follower ever waited on). Guarded by mu.
	cur  *walBatch
	free *walBatch

	// flushMu serializes sink flushes; buf and enc belong to the flusher.
	flushMu sync.Mutex
	buf     bytes.Buffer
	enc     *json.Encoder

	// group-commit stats, guarded by mu.
	batches  uint64
	flushed  uint64
	maxBatch int
}

// NewWAL returns an in-memory WAL.
func NewWAL() *WAL { return &WAL{} }

// NewWALWithSink returns a WAL that additionally mirrors every record to w.
func NewWALWithSink(w io.Writer) *WAL {
	wal := &WAL{sink: w}
	wal.enc = json.NewEncoder(&wal.buf)
	return wal
}

// LoadWAL reads a sink file's JSON-line records back into a fresh WAL —
// the crash-safe startup path of a process whose previous incarnation
// mirrored its log to disk. Reading stops at the first damaged record (a
// crash mid-write leaves a torn tail); the returned offset is the byte
// position of the last intact record, which the caller should truncate
// the file to before appending new records. Commit-mark atomicity is
// untouched: a transaction whose mark fell in the torn tail is simply
// never replayed.
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
			if errors.As(derr, &syn) || errors.Is(derr, io.ErrUnexpectedEOF) {
				// Torn tail: keep what decoded cleanly.
				return w, offset, nil
			}
			return w, offset, derr
		}
		if rec.Kind == recCreateTable && rec.Schema != nil {
			schemas[rec.Schema.Name] = rec.Schema
		}
		restoreRowTypes(rec.Row, schemas[rec.Table])
		w.records = append(w.records, rec)
		offset = dec.InputOffset()
	}
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

// AttachSink starts mirroring records appended from here on to sink.
// Records already in the log (e.g. loaded by LoadWAL) are not rewritten.
func (w *WAL) AttachSink(sink io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = sink
	w.enc = json.NewEncoder(&w.buf)
}

// GroupCommitStats reports sink batching: batches flushed, records
// flushed, and the largest batch seen.
func (w *WAL) GroupCommitStats() (batches, records uint64, maxBatch int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.batches, w.flushed, w.maxBatch
}

// walWait is a pending sink flush: the staged batch plus this staffer's
// role in it. The zero value waits for nothing, so the no-sink path needs
// no branch at the call sites. A value type — handing it back costs no
// allocation, unlike a wait closure.
type walWait struct {
	w      *WAL
	b      *walBatch
	leader bool
}

// Wait blocks until the staged records reach the sink — the batch leader
// performs the flush, followers ride it. Callers must not hold database
// locks (that is what lets concurrent commits pile into the batch).
func (ww walWait) Wait() {
	if ww.b == nil {
		return
	}
	if ww.leader {
		ww.w.flushBatch(ww.b)
		return
	}
	<-ww.b.done
}

// append logs one record. The returned walWait blocks until the record
// reaches the sink (no-op when there is no sink); callers must invoke it
// without holding database locks.
func (w *WAL) append(rec walRecord) walWait {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.records = append(w.records, rec)
	if w.sink == nil {
		return walWait{}
	}
	return w.stageLocked(1)
}

// appendCommit writes a transaction's mutations followed by a commit mark,
// as one atomic group. The returned walWait is as for append.
func (w *WAL) appendCommit(txID uint64, writes []walRecord) walWait {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rec := range writes {
		rec.TxID = txID
		w.records = append(w.records, rec)
	}
	w.records = append(w.records, walRecord{Kind: recCommitMark, TxID: txID})
	if w.sink == nil {
		return walWait{}
	}
	return w.stageLocked(len(writes) + 1)
}

// stageLocked queues the last n in-memory records for the sink. Caller
// holds w.mu. The first stager after a seal leads the batch (its Wait
// performs the flush); later stagers join and their Waits just block on
// the leader. Batch order equals staging order, so the sink's record
// order always matches the in-memory log.
func (w *WAL) stageLocked(n int) walWait {
	if b := w.cur; b != nil {
		b.end = len(w.records)
		if b.done == nil {
			b.done = make(chan struct{})
		}
		return walWait{w: w, b: b}
	}
	b := w.free
	if b == nil {
		b = &walBatch{}
	}
	w.free = nil
	b.start = len(w.records) - n
	b.end = len(w.records)
	b.done = nil
	w.cur = b
	w.batches++
	return walWait{w: w, b: b, leader: true}
}

// flushBatch is the leader's wait: seal the batch and push it to the
// sink in one write. Commits staged while an earlier flush holds flushMu
// join this batch. flushMu makes flushes strictly sequential, so a new
// leader formed during this flush cannot overtake it.
func (w *WAL) flushBatch(b *walBatch) {
	w.flushMu.Lock()
	// Seal: stagers from here on start the next batch. No follower can
	// join after this point, so b's range and done channel are final.
	w.mu.Lock()
	if w.cur == b {
		w.cur = nil
	}
	recs := w.records[b.start:b.end]
	done := b.done
	w.mu.Unlock()
	for i := range recs {
		_ = w.enc.Encode(recs[i]) // mirroring is best-effort; memory copy is authoritative
	}
	if w.buf.Len() > 0 {
		_, _ = w.sink.Write(w.buf.Bytes())
		w.buf.Reset()
	}
	w.flushMu.Unlock()
	w.mu.Lock()
	w.flushed += uint64(len(recs))
	if len(recs) > w.maxBatch {
		w.maxBatch = len(recs)
	}
	if done == nil {
		// Nobody but this leader ever referenced b; recycle it.
		w.free = b
	}
	w.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Len returns the number of records in the log.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// committed returns the replayable prefix of the log: table creations plus
// mutation groups that reached their commit mark.
func (w *WAL) committed() []walRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
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
	return out
}

// TruncateTail drops the last n records, simulating log damage for
// crash-recovery testing.
func (w *WAL) TruncateTail(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n > len(w.records) {
		n = len(w.records)
	}
	w.records = w.records[:len(w.records)-n]
}
