package db

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
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
// flushes (fewer batches than commits), and the sink's record order is
// identical to the authoritative in-memory log.
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

	// The sink must mirror the in-memory log exactly, in order — group
	// commit moves the flush boundary, never the contents.
	var mirrored []walRecord
	dec := json.NewDecoder(strings.NewReader(sunk.String()))
	for dec.More() {
		var rec walRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("sink decode: %v", err)
		}
		mirrored = append(mirrored, rec)
	}
	w.mu.Lock()
	mem := append([]walRecord(nil), w.records...)
	w.mu.Unlock()
	if len(mirrored) != len(mem) {
		t.Fatalf("sink has %d records, memory has %d", len(mirrored), len(mem))
	}
	for i := range mem {
		a, b := mem[i], mirrored[i]
		if a.Kind != b.Kind || a.Table != b.Table || a.Key != b.Key || a.TxID != b.TxID {
			t.Fatalf("record %d: memory %+v != sink %+v", i, a, b)
		}
	}
}

// TestGroupCommitCrashMidBatchReplaysOnlyCommitted simulates a crash that
// cuts the log inside a commit group: the transaction whose commit mark
// was lost must vanish entirely on Recover (both of its rows), while
// every transaction whose mark survived is replayed whole — batching must
// not weaken per-transaction atomicity.
func TestGroupCommitCrashMidBatchReplaysOnlyCommitted(t *testing.T) {
	w := NewWALWithSink(slowSink{io.Discard})
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 10
	runConcurrentCommits(t, d, workers, per)

	// The log always ends with a commit mark (writes+mark append
	// atomically); dropping it leaves that transaction's two inserts
	// mark-less — the crash-mid-batch shape.
	w.mu.Lock()
	last := w.records[len(w.records)-1]
	w.mu.Unlock()
	if last.Kind != recCommitMark {
		t.Fatalf("log does not end with a commit mark: %+v", last)
	}
	victim := last.TxID
	w.TruncateTail(1)

	// The victim's orphaned writes must still be in the damaged log.
	var victimKeys []int64
	w.mu.Lock()
	for _, rec := range w.records {
		if rec.Kind == recInsert && rec.TxID == victim {
			victimKeys = append(victimKeys, rec.Key)
		}
	}
	w.mu.Unlock()
	if len(victimKeys) != 2 {
		t.Fatalf("victim tx %d has %d insert records in the log, want 2", victim, len(victimKeys))
	}

	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	n, err := d.RowCount("users")
	if err != nil {
		t.Fatal(err)
	}
	if want := (workers*per - 1) * 2; n != want {
		t.Fatalf("rows after recovery = %d, want %d (exactly the marked transactions)", n, want)
	}
	tx := mustBegin(t, d)
	defer tx.Abort()
	for _, k := range victimKeys {
		if _, err := tx.Get("users", k); err == nil {
			t.Fatalf("victim row %d survived recovery without its commit mark", k)
		}
	}
}
