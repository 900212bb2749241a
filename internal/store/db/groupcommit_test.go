package db

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// slowSink is a sink whose Write takes about a millisecond, as a write
// to a real file does, so commits staged while one flush is in flight
// pile into the next batch.
type slowSink struct{ w io.Writer }

func (s slowSink) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.w.Write(p)
}

// runConcurrentCommits drives workers×per transactions, each inserting
// two rows, against d. It fails the test on any error.
func runConcurrentCommits(t *testing.T, d *DB, workers, per int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx, err := d.Begin()
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < 2; j++ {
					if _, err := tx.Insert("users", Row{"name": fmt.Sprintf("w%d-%d-%d", w, i, j),
						"rating": int64(0), "region": int64(w)}); err != nil {
						errs <- err
						return
					}
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
}

// TestGroupCommitBatchesAndPreservesOrder checks the two core properties
// of group commit: concurrent committers coalesce into shared sink
// flushes (fewer batches than commits), and the sink holds every record
// logged, each transaction's writes contiguous and closed by its commit
// mark.
func TestGroupCommitBatchesAndPreservesOrder(t *testing.T) {
	var sunk bytes.Buffer
	w := NewWALWithSink(slowSink{&sunk})
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 20
	runConcurrentCommits(t, d, workers, per)

	batches, flushed, maxBatch := w.GroupCommitStats()
	if flushed != uint64(w.Len()) {
		t.Fatalf("flushed %d records, log has %d — commits returned before their flush", flushed, w.Len())
	}
	commits := uint64(workers * per)
	if batches >= commits {
		t.Fatalf("batches = %d for %d commits: no coalescing happened", batches, commits)
	}
	if maxBatch <= 3 { // one transaction is two inserts plus its commit mark
		t.Fatalf("maxBatch = %d records: no batch ever held more than one transaction", maxBatch)
	}

	// Group commit moves the flush boundary, never the contents: the
	// table creation, then one (insert, insert, mark) group per commit.
	recs := sinkRecords(t, sunk.Bytes())
	if len(recs) != w.Len() {
		t.Fatalf("sink has %d records, the WAL logged %d", len(recs), w.Len())
	}
	if recs[0].Kind != recCreateTable {
		t.Fatalf("first sink record %+v, want the table creation", recs[0])
	}
	for i := 1; i < len(recs); i += 3 {
		g := recs[i : i+3]
		tx := g[2].TxID
		if g[0].Kind != recInsert || g[1].Kind != recInsert || g[2].Kind != recCommitMark ||
			g[0].TxID != tx || g[1].TxID != tx {
			t.Fatalf("sink records %d..%d are not one transaction's group: %+v", i, i+2, g)
		}
	}
}

// TestSinkWALHoldsNothingAfterFlush checks that a WAL with a sink keeps
// a record in memory only until its group commit flush: after concurrent
// commits return, no staged record and no row reference remains, while
// Len still counts every record logged.
func TestSinkWALHoldsNothingAfterFlush(t *testing.T) {
	w := NewWALWithSink(slowSink{io.Discard})
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 20
	runConcurrentCommits(t, d, workers, per)

	if want := 1 + workers*per*3; w.Len() != want {
		t.Fatalf("Len = %d, want %d (every record logged)", w.Len(), want)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.records) != 0 {
		t.Fatalf("WAL holds %d records in memory after every flush", len(w.records))
	}
	for i, rec := range w.spare[:cap(w.spare)] {
		if rec.Row != nil || rec.Kind != 0 || rec.TxID != 0 {
			t.Fatalf("spare slot %d still holds a flushed record: %+v", i, rec)
		}
	}
}

// TestGroupCommitCrashMidBatchReplaysOnlyCommitted simulates a crash that
// cuts the sink file inside a commit group, and restarts as a process
// does: LoadWAL + Recover. The transaction whose commit mark was lost
// must vanish entirely (both of its rows), while every transaction whose
// mark survived is replayed whole — batching must not weaken
// per-transaction atomicity.
func TestGroupCommitCrashMidBatchReplaysOnlyCommitted(t *testing.T) {
	var sunk bytes.Buffer
	w := NewWALWithSink(slowSink{&sunk})
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 10
	runConcurrentCommits(t, d, workers, per)

	// The sink always ends with a commit mark (writes+mark stage
	// atomically); dropping its frame leaves that transaction's two
	// inserts mark-less — the crash-mid-batch shape.
	file := sunk.Bytes()
	ends := frameEnds(t, file)
	cut := ends[len(ends)-2]
	recs := sinkRecords(t, file)
	last := recs[len(recs)-1]
	if last.Kind != recCommitMark {
		t.Fatalf("sink does not end with a commit mark: %+v", last)
	}
	victim := last.TxID
	file = file[:cut]

	// The victim's orphaned writes must still be in the damaged file.
	var victimKeys []int64
	for _, rec := range sinkRecords(t, file) {
		if rec.Kind == recInsert && rec.TxID == victim {
			victimKeys = append(victimKeys, rec.Key)
		}
	}
	if len(victimKeys) != 2 {
		t.Fatalf("victim tx %d has %d insert records in the file, want 2", victim, len(victimKeys))
	}

	loaded, _, err := LoadWAL(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	n, err := d2.RowCount("users")
	if err != nil {
		t.Fatal(err)
	}
	if want := (workers*per - 1) * 2; n != want {
		t.Fatalf("rows after recovery = %d, want %d (exactly the marked transactions)", n, want)
	}
	tx := mustBegin(t, d2)
	defer tx.Abort()
	for _, k := range victimKeys {
		if _, err := tx.Get("users", k); err == nil {
			t.Fatalf("victim row %d survived recovery without its commit mark", k)
		}
	}
}
