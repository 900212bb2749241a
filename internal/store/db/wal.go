package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// recKind enumerates WAL record kinds.
type recKind uint8

const (
	recCreateTable recKind = iota
	recInsert
	recUpdate
	recDelete
	recCommitMark
)

// walRecord is one logical log entry. Table mutations are grouped under a
// commit mark; only marked groups are replayed by Recover, so a crash
// mid-commit never exposes partial transactions. walframe.go gives its
// encoding in a log file.
type walRecord struct {
	Kind   recKind
	Table  string
	Key    int64
	Row    Row
	Schema *Schema
	TxID   uint64
}

// WAL is an append-only write-ahead log. It holds its history in exactly
// one place:
//
//   - Without a sink (NewWAL, and a WAL read back by LoadWAL) every record
//     stays in memory. That history is the simulator's stable storage:
//     Recover and RepairTable replay it.
//   - With a sink (NewWALWithSink, AttachSink) the sink is the record of
//     truth. A record is held in memory only from staging until the group
//     commit flush that writes it as a frame, so memory does not grow
//     with uptime. Such a WAL has no history to replay in-process; a
//     restarted process recovers with LoadWAL + Recover.
//
// Sink writes use group commit: concurrent committers staging while a
// flush is in flight coalesce into one batch, and the whole batch reaches
// the sink with a single Write — one flush per batch instead of one per
// transaction. Staging is done under w.mu in commit order, so the sink's
// record order always equals commit order.
//
// A failed sink write is sticky: the committers of its batch and of every
// later one get the error, nothing more is written (a next frame would
// chain from a crc the file lacks), and a commit that starts afterwards
// changes nothing. A restart recovers what the file holds.
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
	// err is the first failed sink write, and failed the number of the
	// batch it failed (batches counts them); guarded by mu.
	err    error
	failed uint64

	// flushMu serializes sink flushes; what follows belongs to the
	// flusher. frame and names are reused from batch to batch. crc is the
	// last frame's, which seeds the next; headed reports that the sink
	// already holds the magic (LoadWAL read it, or a flush wrote it).
	flushMu sync.Mutex
	frame   []byte
	names   []string
	crc     uint32
	headed  bool

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

// NewWALWithSink returns a WAL that writes a new log to w, magic first,
// and keeps no record in memory once written. w should be empty; to
// continue a log file, LoadWAL it and AttachSink.
func NewWALWithSink(w io.Writer) *WAL { return &WAL{sink: w} }

// LoadWAL reads a log file back into a fresh WAL without a sink — the
// crash-safe startup path of a process whose previous incarnation wrote
// its log to disk. It never panics. It keeps the longest valid prefix of
// frames: reading stops at a torn frame (a crash mid-write), at the first
// crc that breaks the chain (damage, a splice, a reordering), and at the
// first record Recover could not replay (see decodeRecord). The returned
// offset is the byte position just past the last good frame, which the
// caller should truncate the file to before appending; commit-mark
// atomicity is untouched, since a transaction whose mark fell past the
// prefix is never replayed.
//
// An empty file, or a proper prefix of the magic (a torn first write),
// loads nothing, at offset 0. A non-empty file that does not start with
// the magic is refused with ErrNotWAL. Otherwise only a read error from r
// is returned as an error.
func LoadWAL(r io.Reader) (w *WAL, offset int64, err error) {
	w = &WAL{}
	br := bufio.NewReaderSize(r, 64<<10)
	if w.headed, err = readHead(br); !w.headed {
		return w, 0, err
	}
	w.crc = magicCRC
	offset = int64(len(walMagic))
	schemas := map[string]*Schema{}
	var big []byte
	for {
		head, err := br.Peek(frameHeadMax)
		if err != nil && err != io.EOF {
			return w, offset, err
		}
		size, n := binary.Uvarint(head)
		if n <= 0 || size > maxPayload || len(head) < n+4 {
			return w, offset, nil // the end, a torn head, or damage
		}
		sum := binary.LittleEndian.Uint32(head[n:])
		_, _ = br.Discard(n + 4)
		p, err := readPayload(br, int(size), &big)
		if err != nil {
			if err == io.EOF {
				err = nil // torn payload
			}
			return w, offset, err
		}
		crc := crc32.Update(w.crc, castagnoli, p)
		if crc != sum {
			return w, offset, nil
		}
		rec, ok := decodeRecord(p, schemas)
		if !ok {
			return w, offset, nil
		}
		if rec.Kind == recCreateTable {
			schemas[rec.Table] = rec.Schema
		}
		w.records = append(w.records, rec)
		w.n++
		w.crc = crc
		offset += int64(n + 4 + int(size))
	}
}

// AttachSink makes sink the record of truth for a WAL that has none:
// records appended from here on are written to it, and the history
// already in memory (what LoadWAL read) is released, not rewritten. The
// frames continue the chain of the ones LoadWAL read, so sink must be
// that file, positioned at the returned offset; after a load that found
// no magic, the first flush writes it. Call Recover before AttachSink;
// afterwards there is nothing left to replay.
func (w *WAL) AttachSink(sink io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = sink
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
// batch leader (done nil) performs the flush; a follower waits on the
// batch's done channel. The zero value waits for nothing, so the no-sink
// path needs no branch at the call sites. A value type — handing it back
// costs no allocation, unlike a wait closure.
type walWait struct {
	w     *WAL
	done  chan struct{}
	batch uint64
}

// Wait blocks until the staged records reach the sink, and returns the
// sink's error if they did not. Callers must not hold database locks
// (that is what lets concurrent commits pile into the batch).
func (ww walWait) Wait() error {
	switch {
	case ww.w == nil:
		return nil
	case ww.done == nil:
		return ww.w.flushBatch()
	}
	<-ww.done
	ww.w.mu.Lock()
	defer ww.w.mu.Unlock()
	if ww.w.err != nil && ww.batch >= ww.w.failed {
		return ww.w.err
	}
	return nil
}

// append logs one record. The returned walWait blocks until the record
// reaches the sink (no-op when there is no sink, or no WAL at all);
// callers must invoke it without holding database locks. After a failed
// sink write it logs nothing and returns that error.
func (w *WAL) append(rec walRecord) (walWait, error) {
	if w == nil {
		return walWait{}, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return walWait{}, w.err
	}
	w.records = append(w.records, rec)
	w.n++
	return w.stageLocked(), nil
}

// appendCommit writes a transaction's mutations followed by a commit mark,
// as one atomic group. It returns as append does.
func (w *WAL) appendCommit(txID uint64, writes []walRecord) (walWait, error) {
	if w == nil {
		return walWait{}, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return walWait{}, w.err
	}
	for _, rec := range writes {
		rec.TxID = txID
		w.records = append(w.records, rec)
	}
	w.records = append(w.records, walRecord{Kind: recCommitMark, TxID: txID})
	w.n += len(writes) + 1
	return w.stageLocked(), nil
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
		return walWait{w: w, done: w.done, batch: w.batches}
	}
	w.open = true
	w.batches++
	return walWait{w: w, batch: w.batches}
}

// flushBatch is the leader's wait: seal the batch and push it to the
// sink in one write, and return the error that kept it off the sink.
// Commits staged while an earlier flush holds flushMu join this batch.
// flushMu makes flushes strictly sequential, so a new leader formed
// during this flush cannot overtake it.
func (w *WAL) flushBatch() error {
	w.flushMu.Lock()
	// Seal: stagers from here on lead the next batch. Only one batch is
	// open at a time and only its leader seals it, so every staged record
	// is this batch's. Take them, and stage into the spare.
	w.mu.Lock()
	w.open = false
	done := w.done
	w.done = nil
	batch := w.batches
	recs := w.records
	w.records, w.spare = w.spare, nil
	err := w.err
	w.mu.Unlock()
	b := w.frame[:0]
	if !w.headed {
		b = append(b, walMagic...)
		w.crc, w.headed = magicCRC, true
	}
	for i := range recs {
		b, w.crc, w.names = appendFrame(b, w.crc, &recs[i], w.names)
	}
	if err == nil { // after a failed write, nothing more is written
		if _, werr := w.sink.Write(b); werr != nil {
			err = fmt.Errorf("db: writing the WAL: %w", werr)
		}
	}
	w.frame = b
	w.mu.Lock()
	switch {
	case err == nil:
		w.flushed += uint64(len(recs))
		w.maxBatch = max(w.maxBatch, len(recs))
	case w.err == nil:
		w.err, w.failed = err, batch
	}
	// The batch is done with: drop it, keeping its capacity as the spare.
	clear(recs)
	w.spare = recs[:0]
	w.mu.Unlock()
	w.flushMu.Unlock()
	if done != nil {
		close(done)
	}
	return err
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
