package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store/db"
)

// TestOpenWALRecoversAfterATornFirstRecord starts twice against a WAL
// file whose only frame is torn. The first start must cut the garbage
// off and log its commits right after the magic, so the second start
// recovers them instead of loading the seed dataset again.
func TestOpenWALRecoversAfterATornFirstRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	if err := os.WriteFile(path, []byte("EBIDWAL1\x40\x01\x02"), 0o644); err != nil {
		t.Fatal(err)
	}

	d, fh, recovered, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("first start recovered from a file holding only a torn record")
	}
	schema := db.Schema{Name: "kv", Columns: []db.Column{{Name: "v", Type: db.Int}}}
	if err := d.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.InsertWithKey("kv", 7, db.Row{"v": int64(42)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	d2, fh2, recovered, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh2.Close()
	if !recovered {
		t.Fatal("second start found no record: the first start's commits were lost")
	}
	tx2, err := d2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Abort()
	row, err := tx2.Get("kv", 7)
	if err != nil || row["v"] != int64(42) {
		t.Fatalf("recovered row = %v, %v; want v=42", row, err)
	}
}

// TestOpenWALRefusesAnOldLog starts against a JSON-line log of the kind
// older builds wrote. The start must fail with db.ErrNotWAL and leave the
// file as it was: truncating it to its "valid prefix" would erase it.
func TestOpenWALRefusesAnOldLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	old := []byte(`{"kind":0,"table":"kv","schema":{"Name":"kv"}}` + "\n" + `{"kind":4,"tx":1}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWAL(path); !errors.Is(err, db.ErrNotWAL) {
		t.Fatalf("openWAL on a JSON-line log: %v, want db.ErrNotWAL", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the refused log now holds %q (%v), want it untouched", got, err)
	}
}
