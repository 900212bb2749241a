package db_test

import (
	"bytes"
	"testing"

	"repro/internal/ebid"
	"repro/internal/store/db"
)

// BenchmarkLoadWAL reads back the log a backend's cold start writes: the
// default eBid dataset (250 users, 3,300 items), loaded through a WAL
// sink. One op is one LoadWAL of the whole file, the decode half of a
// restart; Recover is the other.
func BenchmarkLoadWAL(b *testing.B) {
	var log bytes.Buffer
	if err := ebid.LoadDataset(db.New(db.NewWALWithSink(&log)), ebid.DefaultDataset()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(log.Len()))
	b.ReportAllocs()
	records := 0
	for b.Loop() {
		w, off, err := db.LoadWAL(bytes.NewReader(log.Bytes()))
		if err != nil || off != int64(log.Len()) {
			b.Fatalf("LoadWAL to offset %d of %d: %v", off, log.Len(), err)
		}
		records = w.Len()
	}
	b.ReportMetric(float64(records), "records")
}
